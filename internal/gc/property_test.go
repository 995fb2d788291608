package gc_test

import (
	"testing"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

// shadowNode mirrors one simulated heap object in plain Go.
type shadowNode struct {
	id    uint64
	left  *shadowNode
	right *shadowNode
}

// shadowModel drives random mutations against both the simulated heap and
// a plain Go object graph, then verifies they agree — across minor GCs,
// major GCs, tenuring, and TeraHeap movement.
type shadowModel struct {
	t    *testing.T
	jvm  *gc.Collector
	th   bool // a second heap is attached
	node *vm.Class
	rnd  *workloads.Rand

	roots  []*vm.Handle
	shadow []*shadowNode
	nextID uint64
}

func newShadowModel(t *testing.T, withTH, verify bool, seed uint64) *shadowModel {
	classes := vm.NewClassTable()
	m := &shadowModel{
		t:    t,
		node: classes.MustFixed("Node", 2, 1),
		rnd:  workloads.NewRand(seed),
	}
	spec := rt.Spec{Kind: rt.KindPS, H1Size: 1 * storage.MB, Classes: classes, Layers: rt.Layers{Verify: verify}}
	if withTH {
		cfg := core.DefaultConfig(64 * storage.MB)
		cfg.RegionSize = 32 * storage.KB
		spec.Kind, spec.TH = rt.KindTH, &cfg
	}
	m.jvm, m.th = rt.NewSession(spec).Runtime.(*gc.Collector), withTH
	return m
}

func (m *shadowModel) alloc(left, right int) {
	var l, r *shadowNode
	if left >= 0 && left < len(m.shadow) {
		l = m.shadow[left]
	}
	if right >= 0 && right < len(m.shadow) {
		r = m.shadow[right]
	}
	a, err := m.jvm.Alloc(m.node)
	if err != nil {
		m.t.Fatalf("alloc: %v", err)
	}
	// Read the handles only after the allocation: it may trigger a GC that
	// moves the targets, and a raw address captured before it would be
	// stale.
	var la, ra vm.Addr
	if l != nil {
		la = m.roots[left].Addr()
	}
	if r != nil {
		ra = m.roots[right].Addr()
	}
	m.nextID++
	m.jvm.WritePrim(a, 0, m.nextID)
	m.jvm.WriteRef(a, 0, la)
	m.jvm.WriteRef(a, 1, ra)
	m.roots = append(m.roots, m.jvm.NewHandle(a))
	m.shadow = append(m.shadow, &shadowNode{id: m.nextID, left: l, right: r})
}

func (m *shadowModel) mutate(target, child int) {
	if len(m.shadow) == 0 {
		return
	}
	target %= len(m.shadow)
	var c *shadowNode
	var ca vm.Addr
	if child >= 0 && child < len(m.shadow) {
		c, ca = m.shadow[child], m.roots[child].Addr()
	}
	m.jvm.WriteRef(m.roots[target].Addr(), 0, ca)
	m.shadow[target].left = c
}

func (m *shadowModel) drop(i int) {
	if len(m.shadow) < 2 {
		return
	}
	i %= len(m.shadow)
	m.jvm.Release(m.roots[i])
	last := len(m.shadow) - 1
	m.roots[i], m.roots[last] = m.roots[last], m.roots[i]
	m.shadow[i], m.shadow[last] = m.shadow[last], m.shadow[i]
	m.roots = m.roots[:last]
	m.shadow = m.shadow[:last]
}

// verify walks each rooted graph in both worlds simultaneously.
func (m *shadowModel) verify() {
	seen := make(map[*shadowNode]vm.Addr)
	var walk func(s *shadowNode, a vm.Addr)
	walk = func(s *shadowNode, a vm.Addr) {
		if s == nil {
			if !a.IsNull() {
				m.t.Fatalf("shadow nil but heap has %v", a)
			}
			return
		}
		if a.IsNull() {
			m.t.Fatalf("heap nil but shadow has node %d", s.id)
		}
		if prev, ok := seen[s]; ok {
			if prev != a {
				m.t.Fatalf("node %d aliased at %v and %v (sharing broken)", s.id, prev, a)
			}
			return
		}
		seen[s] = a
		if got := m.jvm.ReadPrim(a, 0); got != s.id {
			m.t.Fatalf("node id mismatch: heap %d shadow %d", got, s.id)
		}
		walk(s.left, m.jvm.ReadRef(a, 0))
		walk(s.right, m.jvm.ReadRef(a, 1))
	}
	for i := range m.shadow {
		walk(m.shadow[i], m.roots[i].Addr())
	}
}

func runShadow(t *testing.T, withTH bool, seed uint64, steps int) {
	newShadowModel(t, withTH, false, seed).run(steps)
}

func (m *shadowModel) run(steps int) {
	t, withTH := m.t, m.th
	for step := 0; step < steps; step++ {
		switch m.rnd.Intn(10) {
		case 0, 1, 2, 3, 4: // allocate, linking random existing nodes
			m.alloc(m.rnd.Intn(len(m.shadow)+1)-1, m.rnd.Intn(len(m.shadow)+1)-1)
		case 5, 6: // mutate a reference
			m.mutate(m.rnd.Intn(1<<20), m.rnd.Intn(len(m.shadow)+1)-1)
		case 7: // drop a root (its subgraph may become garbage)
			m.drop(m.rnd.Intn(1 << 20))
		case 8: // force a minor GC
			if err := m.jvm.MinorGC(); err != nil {
				t.Fatal(err)
			}
		case 9: // occasionally a major GC, with TH tagging beforehand
			if withTH && len(m.roots) > 0 && m.rnd.Intn(2) == 0 {
				i := m.rnd.Intn(len(m.roots))
				label := uint64(1 + m.rnd.Intn(5))
				m.jvm.TagRoot(m.roots[i], label)
				m.jvm.MoveHint(label)
			}
			if err := m.jvm.FullGC(); err != nil {
				t.Fatal(err)
			}
		}
		if step%200 == 199 {
			m.verify()
		}
	}
	m.verify()
}

func TestShadowModelVanilla(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		runShadow(t, false, seed, 3000)
	}
}

func TestShadowModelTeraHeap(t *testing.T) {
	for seed := uint64(11); seed <= 14; seed++ {
		runShadow(t, true, seed, 3000)
	}
}
