package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/simclock"
)

// runRig is one page cache with its own clock, device and fault injector.
type runRig struct {
	clock *simclock.Clock
	dev   *Device
	c     *PageCache
}

func newRunRig(t *testing.T, seed int64, capacity, wbDepth int, window time.Duration) runRig {
	t.Helper()
	plan, err := fault.ParsePlan(fmt.Sprintf("seed=%d,wb-fail=0.3,spike=0.2", seed))
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.New()
	dev := NewDevice(NVMeSSD, clock)
	dev.SetFaultInjector(fault.NewInjector(plan))
	dev.SetWritebackDepth(wbDepth)
	c := NewPageCache(dev, DefaultPageSize, capacity)
	c.WritebackWindow = window
	return runRig{clock: clock, dev: dev, c: c}
}

// lru returns the resident pages from most to least recently used, with
// each page's state.
func (c *PageCache) lru() []int64 {
	var out []int64
	for p := c.head; p != nilPage; p = c.slots[p].next {
		out = append(out, int64(p)<<2|int64(c.slots[p].state))
	}
	return out
}

// sameRunState fails unless the two rigs agree on every counter, the LRU
// order and page states, device traffic and the clock.
func sameRunState(t *testing.T, step string, got, want runRig) {
	t.Helper()
	g, w := got.c, want.c
	gs := [6]int64{g.Hits, g.Faults, g.SeqFaults, g.Writebacks, g.WritebackRetries, g.Evictions}
	ws := [6]int64{w.Hits, w.Faults, w.SeqFaults, w.Writebacks, w.WritebackRetries, w.Evictions}
	if gs != ws {
		t.Fatalf("%s: hits/faults/seq/writebacks/retries/evictions %v, want %v", step, gs, ws)
	}
	if gl, wl := g.lru(), w.lru(); !slices.Equal(gl, wl) {
		t.Fatalf("%s: LRU %v, want %v", step, gl, wl)
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if gd, wd := got.dev.Stats(), want.dev.Stats(); gd != wd {
		t.Fatalf("%s: device %+v, want %+v", step, gd, wd)
	}
	if gn, wn := got.clock.Now(), want.clock.Now(); gn != wn {
		t.Fatalf("%s: clock %v, want %v", step, gn, wn)
	}
}

// TestTouchRunMatchesTouch drives random traces through two caches, one
// using TouchRun and touchPairs and one the per-call Touch sequence they
// stand for. The traces mix faults, sequential streams that trigger
// readahead, eviction at small capacities, dirty pages whose writeback
// window expires across clock advances, and injected writeback failures
// (with and without the writeback queue).
func TestTouchRunMatchesTouch(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(6)
		wbDepth := []int{0, 0, 2}[rng.Intn(3)]
		window := time.Duration(rng.Intn(3)) * 100 * time.Microsecond
		got := newRunRig(t, seed, capacity, wbDepth, window)
		want := newRunRig(t, seed, capacity, wbDepth, window)
		page := func() int64 { return int64(rng.Intn(3 * capacity)) }
		next := int64(0)
		for op := 0; op < 300; op++ {
			step := fmt.Sprintf("seed %d op %d", seed, op)
			switch rng.Intn(5) {
			case 0, 1: // a run on one page
				p, n, write := page(), rng.Intn(6), rng.Intn(3) == 0
				if rng.Intn(3) == 0 {
					p, next = next, next+1+int64(rng.Intn(3)) // a readahead stream
				}
				got.c.TouchRun(p, n, write)
				for range n {
					want.c.Touch(p, write)
				}
				step += fmt.Sprintf(" TouchRun(%d, %d, %v)", p, n, write)
			case 2: // alternating header and field pages
				a, b, m := page(), page(), rng.Intn(6)
				if a == b {
					b++
				}
				got.c.touchPairs(a, b, m)
				for range m {
					want.c.Touch(a, false)
					want.c.Touch(b, false)
				}
				step += fmt.Sprintf(" touchPairs(%d, %d, %d)", a, b, m)
			case 3: // a store dirties a page
				p := page()
				got.c.Touch(p, true)
				want.c.Touch(p, true)
			default: // mutator time passes
				d := time.Duration(rng.Intn(150)) * time.Microsecond
				got.clock.Charge(simclock.Other, d)
				want.clock.Charge(simclock.Other, d)
				if rng.Intn(4) == 0 {
					got.dev.DrainWriteback()
					want.dev.DrainWriteback()
				}
			}
			sameRunState(t, step, got, want)
		}
	}
}

// TestLoadRunMatchesLoadPairs checks MappedFile.LoadRun against the
// per-word Load(hdr), Load(word) sequence a PrimAt loop issues: runs on
// the header's page, runs that straddle pages, a header on a different
// page from the run, and strides 1 to 3, over a cache small enough to
// evict.
func TestLoadRunMatchesLoadPairs(t *testing.T) {
	const pageWords = DefaultPageSize / 8
	newFile := func(seed int64) (runRig, *MappedFile) {
		r := newRunRig(t, seed, 3, 0, 100*time.Microsecond)
		f := NewMappedFile(r.dev, 8*DefaultPageSize, DefaultPageSize, 3*DefaultPageSize)
		f.cache = r.c
		for i := range f.words {
			f.words[i] = uint64(i) * 0x9E3779B97F4A7C15
		}
		return r, f
	}
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, gf := newFile(seed)
		want, wf := newFile(seed)
		for op := 0; op < 100; op++ {
			hdr := int64(rng.Intn(6 * pageWords))
			w := hdr + 2 + int64(rng.Intn(2*pageWords))
			stride := 1 + rng.Intn(3)
			n := rng.Intn(pageWords)
			if max := (int64(len(gf.words)) - 1 - w) / int64(stride); int64(n) > max+1 {
				n = int(max + 1)
			}
			if rng.Intn(4) == 0 {
				gf.Store(w, 1)
				wf.Store(w, 1)
			}
			dst := make([]uint64, n)
			gf.LoadRun(hdr, w, stride, dst)
			for k := range n {
				wf.Load(hdr)
				if v := wf.Load(w + int64(k*stride)); dst[k] != v {
					t.Fatalf("seed %d op %d: word %d = %#x, want %#x", seed, op, k, dst[k], v)
				}
			}
			sameRunState(t, fmt.Sprintf("seed %d op %d LoadRun(%d, %d, %d, %d)", seed, op, hdr, w, stride, n), got, want)
			d := time.Duration(rng.Intn(80)) * time.Microsecond
			got.clock.Charge(simclock.Other, d)
			want.clock.Charge(simclock.Other, d)
		}
	}
}
