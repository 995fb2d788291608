package storage_test

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
)

func TestDeviceChargesReadAndWrite(t *testing.T) {
	clock := simclock.New()
	dev := storage.NewDevice(storage.NVMeSSD, clock)
	dev.Read(4096)
	if clock.Now() <= 0 {
		t.Fatal("read charged no time")
	}
	readTime := clock.Now()
	dev.Write(4096)
	if clock.Now() <= readTime {
		t.Fatal("write charged no time")
	}
	st := dev.Stats()
	if st.ReadOps != 1 || st.WriteOps != 1 || st.BytesRead != 4096 || st.BytesWritten != 4096 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestNVMeFasterSequentialThanRandom(t *testing.T) {
	mkClock := func(seq bool) time.Duration {
		clock := simclock.New()
		dev := storage.NewDevice(storage.NVMeSSD, clock)
		const pages = 256
		for i := 0; i < pages; i++ {
			if seq {
				dev.ReadSeqBatched(4096)
			} else {
				dev.Read(4096)
			}
		}
		return clock.Now()
	}
	if seq, rnd := mkClock(true), mkClock(false); seq >= rnd {
		t.Fatalf("sequential (%v) not faster than random (%v)", seq, rnd)
	}
}

func TestNVMFasterThanNVMe(t *testing.T) {
	run := func(kind storage.Kind) time.Duration {
		clock := simclock.New()
		dev := storage.NewDevice(kind, clock)
		for i := 0; i < 64; i++ {
			dev.Read(4096)
		}
		return clock.Now()
	}
	if nvm, nvme := run(storage.NVM), run(storage.NVMeSSD); nvm >= nvme {
		t.Fatalf("NVM (%v) not faster than NVMe (%v)", nvm, nvme)
	}
}

func TestPageCacheHitsAreFree(t *testing.T) {
	clock := simclock.New()
	dev := storage.NewDevice(storage.NVMeSSD, clock)
	pc := storage.NewPageCache(dev, 4096, 16)
	pc.Touch(0, false)
	cold := clock.Now()
	pc.Touch(0, false)
	if clock.Now() != cold {
		t.Fatal("cache hit charged time")
	}
	if pc.Hits != 1 || pc.Faults != 1 {
		t.Fatalf("hits=%d faults=%d", pc.Hits, pc.Faults)
	}
}

func TestPageCacheEvictsLRU(t *testing.T) {
	clock := simclock.New()
	dev := storage.NewDevice(storage.NVMeSSD, clock)
	pc := storage.NewPageCache(dev, 4096, 2)
	pc.Touch(1, false)
	pc.Touch(2, false)
	pc.Touch(1, false) // 1 is now MRU
	pc.Touch(3, false) // evicts 2
	if !pc.Resident(1) || pc.Resident(2) || !pc.Resident(3) {
		t.Fatalf("LRU wrong: 1=%v 2=%v 3=%v", pc.Resident(1), pc.Resident(2), pc.Resident(3))
	}
	if pc.Evictions != 1 {
		t.Fatalf("evictions = %d", pc.Evictions)
	}
}

func TestPageCacheDirtyEvictionWritesBack(t *testing.T) {
	clock := simclock.New()
	dev := storage.NewDevice(storage.NVMeSSD, clock)
	pc := storage.NewPageCache(dev, 4096, 1)
	pc.WritebackWindow = 0 // rely on eviction writeback only
	pc.Touch(1, true)      // dirty
	w0 := dev.Stats().WriteOps
	pc.Touch(2, false) // evicts dirty page 1
	if dev.Stats().WriteOps != w0+1 {
		t.Fatal("dirty eviction did not write back")
	}
}

func TestPageCacheWritebackWindow(t *testing.T) {
	clock := simclock.New()
	dev := storage.NewDevice(storage.NVMeSSD, clock)
	pc := storage.NewPageCache(dev, 4096, 8)
	pc.WritebackWindow = time.Microsecond
	pc.Touch(1, true)
	// Advance virtual time past the window, then re-touch: the dirty page
	// is written back.
	clock.Charge(simclock.Other, time.Millisecond)
	w0 := pc.Writebacks
	pc.Touch(1, true)
	if pc.Writebacks != w0+1 {
		t.Fatal("no windowed writeback")
	}
}

func TestMappedFileRoundTrip(t *testing.T) {
	clock := simclock.New()
	dev := storage.NewDevice(storage.NVMeSSD, clock)
	m := storage.NewMappedFile(dev, 1<<20, 4096, 64*1024)
	roundTrip := func(w int64, v uint64) bool {
		w = w % m.SizeWords()
		if w < 0 {
			w = -w
		}
		m.Store(w, v)
		return m.Load(w) == v && m.PeekWord(w) == v
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMappedFileBulkStoreIsCheaperThanWordStores(t *testing.T) {
	run := func(bulk bool) time.Duration {
		clock := simclock.New()
		dev := storage.NewDevice(storage.NVMeSSD, clock)
		m := storage.NewMappedFile(dev, 1<<20, 4096, 8*1024)
		data := make([]uint64, 4096)
		if bulk {
			m.BulkStore(0, data)
		} else {
			for i := range data {
				m.Store(int64(i), 7)
			}
		}
		return clock.Now()
	}
	if b, w := run(true), run(false); b >= w {
		t.Fatalf("bulk store (%v) not cheaper than word stores (%v)", b, w)
	}
}

func TestByteStoreCacheAndDelete(t *testing.T) {
	clock := simclock.New()
	dev := storage.NewDevice(storage.NVMeSSD, clock)
	s := storage.NewByteStore(dev, 10_000)
	id := s.Put(5000)
	if got := s.Get(id); got != 5000 {
		t.Fatalf("size = %d", got)
	}
	if s.Hits != 1 {
		t.Fatalf("first Get should hit the cache (fresh Put): hits=%d", s.Hits)
	}
	// A second blob exceeding the cache budget evicts the first.
	id2 := s.Put(8000)
	t0 := clock.Now()
	s.Get(id)
	if clock.Now() == t0 {
		t.Fatal("evicted blob read cost nothing")
	}
	s.Delete(id)
	s.Delete(id2)
	if s.TotalBytes() != 0 {
		t.Fatalf("bytes after delete: %d", s.TotalBytes())
	}
}

func TestZeroWords(t *testing.T) {
	clock := simclock.New()
	dev := storage.NewDevice(storage.NVMeSSD, clock)
	m := storage.NewMappedFile(dev, 1<<16, 4096, 0)
	m.Store(10, 42)
	m.ZeroWords(0, 32)
	if m.PeekWord(10) != 0 {
		t.Fatal("ZeroWords did not clear")
	}
}

func TestStripedDeviceScalesBandwidth(t *testing.T) {
	run := func(stripes int) time.Duration {
		clock := simclock.New()
		dev := storage.NewStripedDevice(storage.NVMeSSD, stripes, clock)
		dev.ReadSeq(64*storage.MB, 4096)
		return clock.Now()
	}
	one, four := run(1), run(4)
	if four*3 > one {
		t.Fatalf("4-way striping too slow: %v vs %v", four, one)
	}
}

// With the writeback queue off, an asynchronous write hides part of its
// cost behind computation: it charges less than a synchronous sequential
// write of the same bytes.
func TestAsyncOverlapReducesWriteCost(t *testing.T) {
	cost := func(write func(*storage.Device)) time.Duration {
		clock := simclock.New()
		write(storage.NewDevice(storage.NVMeSSD, clock))
		return clock.Now()
	}
	async := cost(func(d *storage.Device) { d.WriteAsync(2*storage.MB, 4096) })
	seq := cost(func(d *storage.Device) { d.WriteSeq(2*storage.MB, 4096) })
	if async <= 0 || async >= seq {
		t.Fatalf("async write %v, want in (0, %v) (the sync sequential write)", async, seq)
	}
}
