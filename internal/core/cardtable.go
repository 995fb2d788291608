package core

import (
	"fmt"
	"time"

	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// H2 card states (§3.4). Ranked so that raise() keeps the most
// conservative state: dirty > youngGen > oldGen > clean.
const (
	cardClean byte = iota
	cardOldGen
	cardYoungGen
	cardDirty
)

// cardTable is the H2 card table: one byte per card segment in DRAM,
// organized in slices and stripes (Figure 3). Stripe size equals the
// region size and objects never span regions, so no two GC threads ever
// share a boundary card — the paper's fix for permanently dirty boundary
// cards.
type cardTable struct {
	segSize    int64
	cards      []byte
	numRegions int
}

func newCardTable(cfg Config, numRegions int) *cardTable {
	n := cfg.H2Size / cfg.CardSegmentSize
	return &cardTable{segSize: cfg.CardSegmentSize, cards: make([]byte, n), numRegions: numRegions}
}

func (t *cardTable) get(seg int) byte    { return t.cards[seg] }
func (t *cardTable) set(seg int, s byte) { t.cards[seg] = s }

// raise upgrades the card state, never downgrading.
func (t *cardTable) raise(seg int, s byte) {
	if t.cards[seg] < s {
		t.cards[seg] = s
	}
}

// ScanBackwardRefs walks allocated regions stripe by stripe, scanning the
// objects in card segments whose state requires it: dirty and youngGen
// segments in minor GC, plus oldGen segments in major GC (§3.4). Every
// H1-pointing reference field is passed to visit; the returned address is
// stored back (adjusting backward references), and the segment's state is
// recomputed from what remains.
func (th *TeraHeap) ScanBackwardRefs(major bool, visit func(uint64, vm.Addr) vm.Addr, isYoung func(vm.Addr) bool) {
	startBD := th.clock.Breakdown()
	var cardsExamined, objectsScanned int64
	segsPerRegion := th.segmentsPerRegion()

	for _, r := range th.regions {
		if r == nil || r.empty() {
			continue
		}
		baseSeg := th.segmentOf(r.start)
		for s := 0; s < segsPerRegion; s++ {
			segLo := r.start + vm.Addr(int64(s)*th.cfg.CardSegmentSize)
			if segLo >= r.top {
				break
			}
			cardsExamined++
			st := th.cards.get(baseSeg + s)
			if st == cardClean {
				continue
			}
			if !major && st == cardOldGen {
				// Minor GC never scans oldGen segments: the old
				// generation does not move during a scavenge.
				continue
			}
			segHi := segLo + vm.Addr(th.cfg.CardSegmentSize)
			if segHi > r.top {
				segHi = r.top
			}
			newState := cardClean
			for obj := r.segFirst[s]; !obj.IsNull() && obj < segHi; {
				if th.peekSizeWords(obj) == 0 {
					// Space reserved this cycle whose image has not been
					// committed yet (precompact reserves, compact writes):
					// everything from here to the region top is fresh and
					// its backward references were recorded at commit time.
					break
				}
				objectsScanned++
				nrefs := th.mem.NumRefs(obj)
				for f := 0; f < nrefs; f++ {
					t := th.mem.RefAt(obj, f)
					if t.IsNull() {
						continue
					}
					if th.Contains(t) {
						// A mutator created an H2→H2 edge after the move;
						// record the cross-region dependency it implies.
						th.NoteCrossRegionRef(obj, t)
						continue
					}
					if t >= vm.H1Base<<1 || t < vm.H1Base {
						var layout []string
						for a, n := r.start, 0; a < r.top && n < 400; n++ {
							sz := th.peekSizeWords(a)
							if sz == 0 {
								layout = append(layout, fmt.Sprintf("%v:ZERO", a))
								break
							}
							if a+vm.Addr(sz*vm.WordSize) > obj && a <= obj {
								layout = append(layout, fmt.Sprintf("%v:size=%d COVERS holder %v", a, sz, obj))
							}
							a += vm.Addr(sz * vm.WordSize)
						}
						panic(fmt.Sprintf("core: corrupt backward ref %v at holder %v (region %d label %d seg %d segFirst %v top %v start %v) layout: %v",
							t, obj, r.id, r.label, s, r.segFirst[s], r.top, r.start, layout))
					}
					nt := visit(r.label, t)
					if nt != t {
						th.mem.SetRefAt(obj, f, nt)
					}
					if th.Contains(nt) {
						// The target itself moved into H2 (direct
						// young-to-H2 promotion): the backward reference
						// became a cross-region reference.
						th.NoteCrossRegionRef(obj, nt)
						continue
					}
					if isYoung(nt) {
						if newState < cardYoungGen {
							newState = cardYoungGen
						}
					} else if newState < cardOldGen {
						newState = cardOldGen
					}
				}
				obj += vm.Addr(th.mem.SizeWords(obj) * vm.WordSize)
			}
			th.cards.set(baseSeg+s, newState)
		}
	}

	cpu := time.Duration(cardsExamined)*simclock.PerCard +
		time.Duration(objectsScanned)*simclock.PerCardObject
	th.clock.ChargeAmbient(cpu / simclock.MinorGCThreads)
	th.stats.CardsScanned += cardsExamined
	th.stats.H2ObjectsScanned += objectsScanned
	if !major {
		th.stats.MinorCardsScanned += cardsExamined
		th.stats.MinorH2ObjectsScanned += objectsScanned
		// Fig 11(a) metric: time spent scanning the H2 card table during
		// minor GC (CPU plus device faults).
		th.stats.MinorScanTime += th.clock.Breakdown().Sub(startBD).Total()
	}
}
