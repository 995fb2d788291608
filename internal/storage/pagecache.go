package storage

import (
	"fmt"
	"time"
)

// PageCache is an LRU cache of fixed-size pages standing in for the kernel
// page cache (the DR2 DRAM share in the paper's configurations). Misses
// charge a device read; evicting a dirty page charges a device write, and
// pages that stay dirty past the writeback window are flushed the way the
// kernel's dirty-page writeback does — so mutating device-resident data
// keeps paying device writes (the paper's read-modify-write cost, §7.2).
//
// Residency is tracked in a dense page-slot table indexed by page number
// (mapping pages are dense from 0, bounded by the mapped-file size) with an
// intrusive LRU list threaded through the slots. Touch is the hottest call
// in the simulator — every simulated H2 load and store lands here — so the
// slot table replaces the old map[int64]*cacheEntry to avoid hashing and
// per-fault node allocation.
type PageCache struct {
	dev      *Device
	pageSize int
	capacity int // in pages; 0 means unbounded

	// WritebackWindow is the simulated dirty-page lifetime before
	// writeback (0 disables windowed writeback).
	WritebackWindow time.Duration

	slots      []pageSlot // indexed by page number, grown on demand
	head, tail int32      // LRU list ends; nilPage when empty
	resident   int

	// Persistent writeback thunks so the hot eviction and windowed-flush
	// paths never allocate a closure.
	writePage      func()
	writeAsyncPage func()

	// Readahead state: sequential fault streams amortize device latency
	// over SeqBatch pages, the way OS readahead turns page faults on a
	// streaming mmap into large device reads (the paper's ML workloads
	// reach the device's full 2.9 GB/s this way, §7.1). Several concurrent
	// streams are tracked, as the kernel does per file region: an object
	// walk that alternates between an index array and data arrays forms
	// two interleaved sequential streams.
	streams [8]raStream
	raClock int64

	// Counters.
	Hits             int64
	Faults           int64
	SeqFaults        int64
	Writebacks       int64
	WritebackRetries int64 // injected writeback failures recovered by retry
	Evictions        int64
}

// nilPage terminates the intrusive LRU list.
const nilPage int32 = -1

// Page residency states. The zero value means absent so a freshly grown
// slot table is correct without initialization.
const (
	pageAbsent uint8 = iota
	pageClean
	pageDirty
)

// pageSlot is one entry of the dense residency table. prev/next thread the
// intrusive LRU list (slot indices, nilPage-terminated) and are only
// meaningful while state != pageAbsent.
type pageSlot struct {
	prev, next int32
	state      uint8
	dirtySince time.Duration
}

// NewPageCache builds a cache of capacityPages pages of pageSize bytes over
// dev. A capacity of 0 means the cache never evicts.
func NewPageCache(dev *Device, pageSize, capacityPages int) *PageCache {
	c := &PageCache{
		dev:             dev,
		pageSize:        pageSize,
		capacity:        capacityPages,
		WritebackWindow: 200 * time.Microsecond,
		head:            nilPage,
		tail:            nilPage,
	}
	c.writePage = func() { c.dev.Write(int64(c.pageSize)) }
	c.writeAsyncPage = func() { c.dev.WriteAsync(int64(c.pageSize), c.pageSize) }
	return c
}

// PageSize returns the page size in bytes.
func (c *PageCache) PageSize() int { return c.pageSize }

// Len returns the number of resident pages.
func (c *PageCache) Len() int { return c.resident }

// Capacity returns the capacity in pages (0 = unbounded).
func (c *PageCache) Capacity() int { return c.capacity }

// slot returns the table entry for page, growing the table if needed.
func (c *PageCache) slot(page int64) *pageSlot {
	if page >= int64(len(c.slots)) {
		c.growTo(page)
	}
	return &c.slots[page]
}

// growTo extends the slot table to cover page (amortized doubling).
func (c *PageCache) growTo(page int64) {
	need := page + 1
	if min := int64(2 * len(c.slots)); need < min {
		need = min
	}
	ns := make([]pageSlot, need)
	copy(ns, c.slots)
	c.slots = ns
}

// Touch faults the page in if needed and marks it most-recently-used.
// If write is true the page is marked dirty.
func (c *PageCache) Touch(page int64, write bool) {
	s := c.slot(page)
	if s.state != pageAbsent {
		c.Hits++
		c.moveToFront(int32(page))
		// Windowed writeback: a page that has been dirty longer than the
		// writeback window is flushed; further writes re-dirty it and pay
		// again.
		if s.state == pageDirty && c.WritebackWindow > 0 {
			if now := c.dev.clock.Now(); now-s.dirtySince >= c.WritebackWindow {
				c.Writebacks++
				c.chargeWriteback(c.writeAsyncPage)
				s.state = pageClean
			}
		}
	} else {
		c.Faults++
		if c.noteFault(page) {
			// Established sequential stream: readahead amortizes the
			// device latency across a batched read.
			c.SeqFaults++
			c.dev.ReadSeqBatched(int64(c.pageSize))
		} else {
			c.dev.Read(int64(c.pageSize))
		}
		s.state = pageClean
		c.pushFront(int32(page))
		c.resident++
		c.evictIfNeeded()
	}
	if write && s.state != pageDirty {
		s.state = pageDirty
		s.dirtySince = c.dev.clock.Now()
	}
}

// TouchRun equals n consecutive Touch(page, write) calls: one real Touch,
// then n-1 hits. After the first touch the page is resident at the LRU
// front, so later hits do not move it; a fault leaves it clean, so a write
// dirties it at the current time; and a hit changes neither the clock nor
// the page state, so the writeback-window check cannot fire again.
func (c *PageCache) TouchRun(page int64, n int, write bool) {
	if n <= 0 {
		return
	}
	c.Touch(page, write)
	c.Hits += int64(n - 1)
}

// touchPairs equals m repetitions of Touch(a, false), Touch(b, false) for
// a != b. Each pair is replayed until one takes neither a fault nor a
// writeback: such a pair leaves b at the LRU front with a behind it, the
// page states and the clock unchanged, so every later pair repeats it as
// two plain hits.
func (c *PageCache) touchPairs(a, b int64, m int) {
	for ; m > 0; m-- {
		faults, writebacks := c.Faults, c.Writebacks
		c.Touch(a, false)
		c.Touch(b, false)
		if c.Faults == faults && c.Writebacks == writebacks {
			c.Hits += 2 * int64(m-1)
			return
		}
	}
}

// Resident reports whether the page is currently cached.
func (c *PageCache) Resident(page int64) bool {
	return page >= 0 && page < int64(len(c.slots)) && c.slots[page].state != pageAbsent
}

// FlushAll writes back every dirty page (msync-style) without evicting.
func (c *PageCache) FlushAll() {
	var dirtyBytes int64
	for p := c.head; p != nilPage; p = c.slots[p].next {
		s := &c.slots[p]
		if s.state == pageDirty {
			s.state = pageClean
			c.Writebacks++
			dirtyBytes += int64(c.pageSize)
		}
	}
	if dirtyBytes > 0 {
		c.chargeWriteback(func() { c.dev.WriteSeq(dirtyBytes, c.pageSize) })
	}
}

// chargeWriteback charges one writeback, paying it a second time if the
// fault plane fails the first attempt (the kernel's writeback path retries
// failed dirty-page I/O; the data is still in the cache, so recovery is a
// repeat of the write).
func (c *PageCache) chargeWriteback(charge func()) {
	charge()
	if c.dev.inj.WritebackFailed() {
		c.WritebackRetries++
		charge()
	}
}

// InvalidateRange drops any cached pages in [firstPage, lastPage] without
// writeback; used when whole H2 regions are reclaimed (their contents are
// dead, so dirty data need not reach the device). Readahead streams whose
// expected next page falls in the range are reset: the stream's run ended
// with the reclaimed region, and letting it linger would misclassify the
// next unrelated fault nearby as sequential.
func (c *PageCache) InvalidateRange(firstPage, lastPage int64) {
	if lastPage-firstPage+1 > int64(c.resident) {
		// Region reclaims cover far more pages than are resident; walk the
		// LRU list instead of probing every page in the range.
		for p := c.head; p != nilPage; {
			next := c.slots[p].next
			if int64(p) >= firstPage && int64(p) <= lastPage {
				c.remove(p)
			}
			p = next
		}
	} else {
		lo := firstPage
		if lo < 0 {
			lo = 0
		}
		hi := lastPage
		if max := int64(len(c.slots)) - 1; hi > max {
			hi = max
		}
		for p := lo; p <= hi; p++ {
			if c.slots[p].state != pageAbsent {
				c.remove(int32(p))
			}
		}
	}
	for i := range c.streams {
		s := &c.streams[i]
		if s.run > 0 && s.next >= firstPage && s.next <= lastPage {
			*s = raStream{}
		}
	}
}

// remove unlinks a resident page and marks its slot absent.
func (c *PageCache) remove(p int32) {
	c.unlink(p)
	c.slots[p].state = pageAbsent
	c.resident--
}

func (c *PageCache) evictIfNeeded() {
	if c.capacity <= 0 {
		return
	}
	for c.resident > c.capacity {
		victim := c.tail
		if victim == nilPage {
			return
		}
		if c.slots[victim].state == pageDirty {
			c.Writebacks++
			c.chargeWriteback(c.writePage)
		}
		c.Evictions++
		c.remove(victim)
	}
}

func (c *PageCache) pushFront(p int32) {
	s := &c.slots[p]
	s.prev = nilPage
	s.next = c.head
	if c.head != nilPage {
		c.slots[c.head].prev = p
	}
	c.head = p
	if c.tail == nilPage {
		c.tail = p
	}
}

func (c *PageCache) unlink(p int32) {
	s := &c.slots[p]
	if s.prev != nilPage {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next != nilPage {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
	s.prev, s.next = nilPage, nilPage
}

func (c *PageCache) moveToFront(p int32) {
	if c.head == p {
		return
	}
	c.unlink(p)
	c.pushFront(p)
}

// CheckConsistency validates the cache's internal structure: the LRU list
// and the slot table must describe the same set of resident pages, the list
// links must be well formed, and the capacity bound must hold. It returns
// the first inconsistency found, or nil. Invariant checks and tests only.
func (c *PageCache) CheckConsistency() error {
	n := 0
	prev := nilPage
	for p := c.head; p != nilPage; p = c.slots[p].next {
		s := &c.slots[p]
		if s.prev != prev {
			return fmt.Errorf("pagecache: page %d has prev %d, want %d", p, s.prev, prev)
		}
		if s.state == pageAbsent {
			return fmt.Errorf("pagecache: page %d on LRU list but its slot is absent", p)
		}
		n++
		if n > c.resident {
			return fmt.Errorf("pagecache: LRU list longer than resident count (%d) — cycle or leaked node", c.resident)
		}
		prev = p
	}
	if prev != c.tail {
		return fmt.Errorf("pagecache: tail %d does not terminate the LRU list (last node %d)", c.tail, prev)
	}
	if n != c.resident {
		return fmt.Errorf("pagecache: LRU list has %d entries, resident count is %d", n, c.resident)
	}
	total := 0
	for i := range c.slots {
		if c.slots[i].state != pageAbsent {
			total++
		}
	}
	if total != c.resident {
		return fmt.Errorf("pagecache: %d resident slots in table, resident count is %d", total, c.resident)
	}
	if c.capacity > 0 && n > c.capacity {
		return fmt.Errorf("pagecache: %d resident pages exceed capacity %d", n, c.capacity)
	}
	return nil
}

// raStream is one tracked sequential fault stream.
type raStream struct {
	next     int64 // expected next faulting page
	run      int   // consecutive sequential faults observed
	lastUsed int64
}

// noteFault classifies a fault against the tracked streams and reports
// whether readahead covers it (an established stream).
func (c *PageCache) noteFault(page int64) bool {
	c.raClock++
	// Match an existing stream. Gaps up to a readahead window (16 pages,
	// 64 KB at the default page size) stay inside the already-prefetched
	// range, so they continue the stream: kernel readahead windows grow
	// to 128 KB and larger on streaming access.
	for i := range c.streams {
		s := &c.streams[i]
		if s.run > 0 && page >= s.next && page <= s.next+16 {
			s.next = page + 1
			s.run++
			s.lastUsed = c.raClock
			return s.run >= 3
		}
	}
	// Start a new stream in the least recently used slot.
	victim := 0
	for i := range c.streams {
		if c.streams[i].lastUsed < c.streams[victim].lastUsed {
			victim = i
		}
	}
	c.streams[victim] = raStream{next: page + 1, run: 1, lastUsed: c.raClock}
	return false
}
