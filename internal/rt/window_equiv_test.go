package rt

import (
	"math/rand"
	"testing"
	"time"

	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// windowCaches returns the page caches behind the session's charged
// mappings: the memory-mode H1 file and the H2 file.
func windowCaches(ses *Session) []*storage.PageCache {
	var out []*storage.PageCache
	if f, ok := ses.Runtime.Mem().AS.Resolve(vm.H1Base).(mappedVMMemory); ok {
		out = append(out, f.f.Cache())
	}
	if ses.TH != nil {
		out = append(out, ses.TH.Mapped().Cache())
	}
	return out
}

// TestWindowEquivalenceComposedKinds builds each composed runtime twice
// and drives one fixed random Load/Store/Peek trace through it: once
// through the windowed AddressSpace methods and once through Resolve. PS
// and G1 put all of H1 in the DRAM window, Panthera only its DRAM prefix
// (the trace includes the words at dramEnd-8 and dramEnd), Spark-MO has no
// window, and the TeraHeap kinds add the H2 window. A second trace then
// reads primitive counts and object runs with Mem.NumPrims and Mem.PrimRun
// on one session and the loads they stand for on the other (see
// primRunTrace), and a third writes them with
// Mem.SetPrimRun and the SetPrimAt loop (see primWriteTrace). Values,
// page-cache counters, device ops and the clock must all agree, and so
// must the dirty pages, which a final flush of every cache writes back.
func TestWindowEquivalenceComposedKinds(t *testing.T) {
	for _, kind := range []Kind{KindPS, KindG1, KindPanthera, KindMO, KindTH, KindG1TH} {
		t.Run(kind.String(), func(t *testing.T) {
			spec := testSpec(kind)
			got, want := NewSession(spec), NewSession(spec)
			as, ref := got.Runtime.Mem().AS, want.Runtime.Mem().AS

			var edges []vm.Addr
			var dramEnd vm.Addr
			if kind == KindPanthera {
				dramEnd = got.Runtime.(*gc.Collector).H1.Old.Start + vm.Addr(spec.DRAMOldBytes)
				edges = append(edges, dramEnd-vm.WordSize, dramEnd)
			}
			type span struct{ start, words vm.Addr }
			spans := []span{{vm.H1Base, vm.Addr(spec.H1Size / vm.WordSize)}}
			if got.TH != nil {
				spans = append(spans, span{vm.H2Base, vm.Addr(got.TH.Config().H2Size / vm.WordSize)})
				edges = append(edges, vm.H2Base)
			}
			rng := rand.New(rand.NewSource(29))
			word := func() vm.Addr {
				for {
					var a vm.Addr
					if len(edges) > 0 && rng.Intn(8) == 0 {
						a = edges[rng.Intn(len(edges))]
					} else {
						s := spans[rng.Intn(len(spans))]
						a = s.start + vm.Addr(rng.Int63n(int64(s.words)))*vm.WordSize
					}
					if as.Resolve(a) != nil {
						return a
					}
				}
			}
			for i := 0; i < 20000; i++ {
				a := word()
				switch op := rng.Intn(4); op {
				case 0, 1:
					if g, w := as.Load(a), ref.Resolve(a).Load(a); g != w {
						t.Fatalf("op %d: Load(%v) = %d, want %d", i, a, g, w)
					}
				case 2:
					v := rng.Uint64()
					as.Store(a, v)
					ref.Resolve(a).Store(a, v)
				default:
					var w uint64
					if p, ok := ref.Resolve(a).(vm.Peeker); ok {
						w = p.Peek(a)
					} else {
						w = ref.Resolve(a).Load(a)
					}
					if g := as.Peek(a); g != w {
						t.Fatalf("op %d: Peek(%v) = %d, want %d", i, a, g, w)
					}
				}
			}

			bases := traceBases(got, dramEnd)
			primRunTrace(t, got, want, bases)
			primWriteTrace(t, got, want, bases)

			gc, wc := windowCaches(got), windowCaches(want)
			for _, stage := range []string{"after the traces", "after a flush"} {
				if stage == "after a flush" {
					for i := range gc {
						gc[i].FlushAll()
						wc[i].FlushAll()
					}
				}
				for i := range gc {
					g := [5]int64{gc[i].Hits, gc[i].Faults, gc[i].SeqFaults, gc[i].Writebacks, gc[i].Evictions}
					w := [5]int64{wc[i].Hits, wc[i].Faults, wc[i].SeqFaults, wc[i].Writebacks, wc[i].Evictions}
					if g != w {
						t.Errorf("%s: cache %d: hits/faults/seq/writebacks/evictions %v, want %v", stage, i, g, w)
					}
				}
				if g, w := got.Device.Stats(), want.Device.Stats(); g != w {
					t.Errorf("%s: device stats %+v, want %+v", stage, g, w)
				}
				if g, w := got.Clock.Breakdown(), want.Clock.Breakdown(); g != w {
					t.Errorf("%s: clock breakdown %v, want %v", stage, g, w)
				}
			}
			charged := kind == KindMO || kind == KindPanthera || got.TH != nil
			if charged && got.Clock.Now() == 0 {
				t.Error("trace charged nothing on a kind with a charged mapping: vacuous")
			}
		})
	}
}

const pageWords = storage.DefaultPageSize / vm.WordSize

// traceBases returns the object addresses the run traces start from: one
// in H1, one in H2 on the TeraHeap kinds, and 40 words below dramEnd on
// Panthera, so that runs longer than that straddle it.
func traceBases(ses *Session, dramEnd vm.Addr) []vm.Addr {
	bases := []vm.Addr{vm.H1Base + 3*storage.MB}
	if ses.TH != nil {
		bases = append(bases, vm.H2Base+5*vm.WordSize)
	}
	if dramEnd != 0 {
		bases = append(bases, dramEnd-40*vm.WordSize)
	}
	return bases
}

// primRunTrace writes object headers at fixed and random addresses of
// both sessions and reads primitive runs from them: Mem.PrimRun on got,
// the PrimAt loop on want. Before each run it reads the object's
// primitive count: Mem.NumPrims on got, the SizeWords and NumRefs loads
// it stands for on want. The fixed objects straddle pages, put the run
// on a different page from the header, read at stride 2 and (on Panthera)
// straddle dramEnd; stores and mutator time in between dirty pages and
// expire writeback windows.
func primRunTrace(t *testing.T, got, want *Session, bases []vm.Addr) {
	t.Helper()
	gm, wm := got.Runtime.Mem(), want.Runtime.Mem()
	type run struct {
		a                      vm.Addr
		refs, prims, i, stride int
		n                      int
	}
	var runs []run
	for _, b := range bases {
		runs = append(runs,
			run{a: b, refs: 1, prims: 60, i: 0, stride: 1, n: 60},                         // one page
			run{a: b, refs: 2, prims: 3 * pageWords, i: 0, stride: 1, n: 3 * pageWords},   // straddles pages
			run{a: b, refs: 0, prims: 3 * pageWords, i: 2 * pageWords, stride: 1, n: 100}, // run off the header's page
			run{a: b, refs: 1, prims: 2 * pageWords, i: 1, stride: 2, n: pageWords - 1},   // stride 2
			run{a: b, refs: 3, prims: 2 * pageWords, i: pageWords - 8, stride: 3, n: 50},  // stride 3 across a page
			run{a: b + 8*vm.WordSize, refs: 0, prims: 10, i: 9, stride: 1, n: 1},          // last word only
		)
	}
	rng := rand.New(rand.NewSource(31))
	for len(runs) < 400 {
		b := bases[rng.Intn(len(bases))] + vm.Addr(rng.Intn(64*int(pageWords)))*vm.WordSize
		prims := 1 + rng.Intn(2*int(pageWords))
		i := rng.Intn(prims)
		stride := 1 + rng.Intn(3)
		runs = append(runs, run{a: b, refs: rng.Intn(4), prims: prims, i: i, stride: stride, n: rng.Intn((prims-1-i)/stride + 2)})
	}
	for k, r := range runs {
		size := vm.HeaderWords + r.refs + r.prims
		if gm.AS.Resolve(r.a) == nil || gm.AS.Resolve(r.a+vm.Addr(size-1)*vm.WordSize) == nil {
			t.Fatalf("run %d: object at %v (%d words) is not mapped", k, r.a, size)
		}
		shape := uint64(size) | uint64(r.refs)<<32
		gm.AS.Store(r.a+vm.WordSize, shape)
		wm.AS.Store(r.a+vm.WordSize, shape)
		if g, w := gm.NumPrims(r.a), wm.SizeWords(r.a)-vm.HeaderWords-wm.NumRefs(r.a); g != w || g != r.prims {
			t.Fatalf("run %d %+v: NumPrims = %d, want %d (two shape loads gave %d)", k, r, g, r.prims, w)
		}
		dst := make([]uint64, r.n)
		gm.PrimRun(r.a, r.i, r.stride, dst)
		for j := range dst {
			if w := wm.PrimAt(r.a, r.i+j*r.stride); dst[j] != w {
				t.Fatalf("run %d %+v: word %d = %#x, want %#x", k, r, j, dst[j], w)
			}
		}
		if rng.Intn(3) == 0 {
			v := rng.Uint64()
			f := vm.Addr(vm.HeaderWords+r.refs+rng.Intn(r.prims)) * vm.WordSize
			gm.AS.Store(r.a+f, v)
			wm.AS.Store(r.a+f, v)
		}
		d := time.Duration(rng.Intn(100)) * time.Microsecond
		ChargeCompute(got.Clock, d)
		ChargeCompute(want.Clock, d)
	}
}

// primWriteTrace writes object headers at fixed and random addresses of
// both sessions and writes primitive runs into them: Mem.SetPrimRun on
// got, the SetPrimAt loop on want. The fixed runs fill part of a page,
// straddle pages, start off the header's page, write only the last word
// and (on Panthera) straddle dramEnd; charged reads and mutator time in
// between fault pages back in and expire writeback windows. Every written
// word must read back the same on both.
func primWriteTrace(t *testing.T, got, want *Session, bases []vm.Addr) {
	t.Helper()
	gm, wm := got.Runtime.Mem(), want.Runtime.Mem()
	type run struct {
		a              vm.Addr
		refs, prims, i int
		n              int
	}
	var runs []run
	for _, b := range bases {
		runs = append(runs,
			run{a: b, refs: 1, prims: 60, i: 0, n: 60},                                 // one page
			run{a: b, refs: 2, prims: 3 * pageWords, i: 0, n: 3 * pageWords},           // straddles pages
			run{a: b, refs: 0, prims: 3 * pageWords, i: 2 * pageWords, n: 100},         // run off the header's page
			run{a: b + 8*vm.WordSize, refs: 0, prims: 10, i: 9, n: 1},                  // last word only
			run{a: b + pageWords*vm.WordSize, refs: 3, prims: pageWords, i: 5, n: 200}, // header on a clean page
		)
	}
	rng := rand.New(rand.NewSource(37))
	for len(runs) < 400 {
		b := bases[rng.Intn(len(bases))] + vm.Addr(rng.Intn(64*int(pageWords)))*vm.WordSize
		prims := 1 + rng.Intn(2*int(pageWords))
		i := rng.Intn(prims)
		runs = append(runs, run{a: b, refs: rng.Intn(4), prims: prims, i: i, n: rng.Intn(prims-i) + 1})
	}
	for k, r := range runs {
		size := vm.HeaderWords + r.refs + r.prims
		if gm.AS.Resolve(r.a) == nil || gm.AS.Resolve(r.a+vm.Addr(size-1)*vm.WordSize) == nil {
			t.Fatalf("write run %d: object at %v (%d words) is not mapped", k, r.a, size)
		}
		shape := uint64(size) | uint64(r.refs)<<32
		gm.AS.Store(r.a+vm.WordSize, shape)
		wm.AS.Store(r.a+vm.WordSize, shape)
		src := make([]uint64, r.n)
		for j := range src {
			src[j] = rng.Uint64()
		}
		gm.SetPrimRun(r.a, r.i, src)
		for j, v := range src {
			wm.SetPrimAt(r.a, r.i+j, v)
		}
		for j := range src {
			f := r.a + vm.Addr((vm.HeaderWords+r.refs+r.i+j)*vm.WordSize)
			if g, w := gm.AS.Peek(f), wm.AS.Peek(f); g != w || g != src[j] {
				t.Fatalf("write run %d %+v: word %d = %#x, want %#x (loop wrote %#x)", k, r, j, g, src[j], w)
			}
		}
		if rng.Intn(3) == 0 {
			j := rng.Intn(r.prims)
			if g, w := gm.PrimAt(r.a, j), wm.PrimAt(r.a, j); g != w {
				t.Fatalf("write run %d %+v: PrimAt(%d) = %#x, want %#x", k, r, j, g, w)
			}
		}
		d := time.Duration(rng.Intn(100)) * time.Microsecond
		ChargeCompute(got.Clock, d)
		ChargeCompute(want.Clock, d)
	}
}
