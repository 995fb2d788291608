package rt

import (
	"math/rand"
	"testing"

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
// window, and the TeraHeap kinds add the H2 window. Values, page-cache
// hits and faults, device ops and the clock must all agree.
func TestWindowEquivalenceComposedKinds(t *testing.T) {
	for _, kind := range []Kind{KindPS, KindG1, KindPanthera, KindMO, KindTH, KindG1TH} {
		t.Run(kind.String(), func(t *testing.T) {
			spec := testSpec(kind)
			got, want := NewSession(spec), NewSession(spec)
			as, ref := got.Runtime.Mem().AS, want.Runtime.Mem().AS

			var edges []vm.Addr
			if kind == KindPanthera {
				dramEnd := got.Runtime.(*JVM).Collector().H1.Old.Start + vm.Addr(spec.DRAMOldBytes)
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

			gc, wc := windowCaches(got), windowCaches(want)
			for i := range gc {
				if gc[i].Hits != wc[i].Hits || gc[i].Faults != wc[i].Faults {
					t.Errorf("cache %d: hits/faults %d/%d, want %d/%d", i, gc[i].Hits, gc[i].Faults, wc[i].Hits, wc[i].Faults)
				}
			}
			if g, w := got.Device.Stats(), want.Device.Stats(); g != w {
				t.Errorf("device stats %+v, want %+v", g, w)
			}
			if g, w := got.Clock.Breakdown(), want.Clock.Breakdown(); g != w {
				t.Errorf("clock breakdown %v, want %v", g, w)
			}
			charged := kind == KindMO || kind == KindPanthera || got.TH != nil
			if charged && got.Clock.Now() == 0 {
				t.Error("trace charged nothing on a kind with a charged mapping: vacuous")
			}
		})
	}
}
