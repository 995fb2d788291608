package check_test

import (
	"testing"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// target is one object whose header a case damages, in a freshly built
// heap, with where the verifier must locate a failure about it.
type target struct {
	rt     rt.Runtime
	addr   vm.Addr
	space  string
	region int
}

// heapKind builds one heap and picks the object a case damages.
type heapKind struct {
	name string
	// build returns the target; humongous asks G1 for a humongous object
	// instead of an eden one.
	build func(t *testing.T, humongous bool) target
}

var (
	psHeap = heapKind{"ps", func(t *testing.T, _ bool) target {
		s := rt.NewSession(rt.Spec{Kind: rt.KindPS, H1Size: 1 * storage.MB})
		return target{s.Runtime, allocLast(t, s.Runtime), "eden", -1}
	}}
	g1Heap = heapKind{"g1", func(t *testing.T, humongous bool) target {
		cfg := core.DefaultConfig(64 * storage.MB)
		cfg.RegionSize = 32 * storage.KB
		s := rt.NewSession(rt.Spec{Kind: rt.KindG1TH, H1Size: 1 * storage.MB, TH: &cfg})
		space, a := "eden", allocLast(t, s.Runtime)
		if humongous {
			arr := s.Classes.MustPrimArray("long[]")
			var err error
			if a, err = s.Runtime.AllocPrimArray(arr, 1000); err != nil {
				t.Fatal(err)
			}
			s.Runtime.NewHandle(a)
			space = "humongous"
		}
		type regionSized interface{ RegionSize() int64 }
		rs := s.Runtime.(regionSized).RegionSize()
		return target{s.Runtime, a, space, int(int64(a-vm.H1Base) / rs)}
	}}
	h2Heap = heapKind{"h2", func(t *testing.T, _ bool) target {
		cfg := core.DefaultConfig(64 * storage.MB)
		cfg.RegionSize = 32 * storage.KB
		s := rt.NewSession(rt.Spec{Kind: rt.KindTH, H1Size: 1 * storage.MB, TH: &cfg})
		arr := s.Classes.MustPrimArray("long[]")
		a, err := s.Runtime.AllocPrimArray(arr, 16)
		if err != nil {
			t.Fatal(err)
		}
		h := s.Runtime.NewHandle(a)
		s.Runtime.TagRoot(h, 1)
		s.Runtime.MoveHint(1)
		if err := s.Runtime.FullGC(); err != nil {
			t.Fatal(err)
		}
		if !s.Runtime.InSecondHeap(h.Addr()) {
			t.Fatal("array not moved to H2")
		}
		a = h.Addr()
		return target{s.Runtime, a, "h2", int(int64(a-vm.H2Base) / cfg.RegionSize)}
	}}
)

// allocLast allocates one rooted node, the newest object of its space.
func allocLast(t *testing.T, r rt.Runtime) vm.Addr {
	t.Helper()
	a, err := r.Alloc(r.Classes().MustFixed("Node", 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	r.NewHandle(a)
	return a
}

// setShape overwrites an object's shape word.
func setShape(m *vm.Mem, a vm.Addr, sizeWords, numRefs int) {
	m.AS.Store(a+vm.WordSize, uint64(sizeWords)|uint64(numRefs)<<32)
}

// TestHeaderRulesOnEveryHeap damages one object header per case, on a PS
// space, a G1 region and an H2 region, and pins the rule the verifier
// reports and where it locates it: the space, the region and the object.
func TestHeaderRulesOnEveryHeap(t *testing.T) {
	// Verification runs by hand on the damaged heap; no pause may follow.
	t.Setenv("TH_VERIFY", "")
	all := []heapKind{psHeap, g1Heap, h2Heap}
	cases := []struct {
		name      string
		heaps     []heapKind
		humongous bool // G1 damages a humongous object
		damage    func(m *vm.Mem, a vm.Addr)
		rule      string
		noHolder  bool // the rule names no object
	}{
		{name: "forwarding", heaps: all, humongous: true,
			damage: func(m *vm.Mem, a vm.Addr) { m.SetForwardee(a, vm.H1Base) },
			rule:   "forwarding-outside-pause"},
		{name: "stale-mark-bit", heaps: all,
			damage: func(m *vm.Mem, a vm.Addr) { m.SetMarked(a, true) },
			rule:   "stale-gc-bits"},
		{name: "stale-closure-bit", heaps: all,
			damage: func(m *vm.Mem, a vm.Addr) { m.SetInClosure(a, true) },
			rule:   "stale-gc-bits"},
		{name: "class-id-zero", heaps: all,
			damage: func(m *vm.Mem, a vm.Addr) { m.SetStatus(a, 0) },
			rule:   "bad-class"},
		{name: "bad-shape", heaps: all,
			damage: func(m *vm.Mem, a vm.Addr) { setShape(m, a, vm.HeaderWords-1, 0) },
			rule:   "bad-shape"},
		{name: "refs-exceed-size", heaps: all,
			damage: func(m *vm.Mem, a vm.Addr) { setShape(m, a, m.SizeWords(a), m.SizeWords(a)) },
			rule:   "bad-shape"},
		{name: "overrun", heaps: all,
			damage: func(m *vm.Mem, a vm.Addr) { setShape(m, a, 1<<24, 0) },
			rule:   "object-overruns-end"},
		{name: "accounting", heaps: all,
			damage: func(m *vm.Mem, a vm.Addr) { setShape(m, a, m.SizeWords(a)+2, m.NumRefs(a)) },
			rule:   "accounting"},
		{name: "husk-forwardee-not-in-h2", heaps: []heapKind{g1Heap},
			damage: func(m *vm.Mem, a vm.Addr) { m.SetForwardee(a, vm.H1Base+vm.WordSize) },
			rule:   "forwarding-outside-pause"},
		{name: "husk-bad-shape", heaps: []heapKind{g1Heap},
			damage: func(m *vm.Mem, a vm.Addr) {
				m.SetForwardee(a, vm.H2Base)
				setShape(m, a, vm.HeaderWords-1, 0)
			},
			rule: "bad-shape"},
		{name: "object-count", heaps: []heapKind{h2Heap}, noHolder: true,
			// Split the object in two valid ones: the walk still ends at
			// top, but counts one object more than the region records.
			damage: func(m *vm.Mem, a vm.Addr) {
				size := m.SizeWords(a)
				setShape(m, a, vm.HeaderWords, 0)
				m.InitObject(a+vm.HeaderWords*vm.WordSize, m.ClassOf(a), 0, size-vm.HeaderWords)
			},
			rule: "h2-object-count"},
	}
	for _, tc := range cases {
		for _, hk := range tc.heaps {
			t.Run(tc.name+"/"+hk.name, func(t *testing.T) {
				tg := hk.build(t, tc.humongous)
				if fails := tg.rt.VerifyNow(); len(fails) != 0 {
					t.Fatalf("clean heap reported violations: %v", fails)
				}
				tc.damage(tg.rt.Mem(), tg.addr)
				holder := tg.addr
				if tc.noHolder {
					holder = vm.NullAddr
				}
				fails := tg.rt.VerifyNow()
				for _, f := range fails {
					if f.Rule == tc.rule && f.Holder == holder {
						if f.Space != tg.space || f.Region != tg.region {
							t.Fatalf("%s located at space=%q region=%d, want space=%q region=%d: %v",
								tc.rule, f.Space, f.Region, tg.space, tg.region, f)
						}
						return
					}
				}
				t.Fatalf("no %s failure with holder %v in %v", tc.rule, holder, fails)
			})
		}
	}
}
