package g1_test

import (
	"os"
	"testing"
	"time"

	"github.com/carv-repro/teraheap-go/internal/baselines/g1"
	"github.com/carv-repro/teraheap-go/internal/check"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

type env struct {
	g    *g1.G1
	node *vm.Class
	arr  *vm.Class
	parr *vm.Class
}

func newEnv(t *testing.T, h1Size int64) *env {
	t.Helper()
	classes := vm.NewClassTable()
	e := &env{
		node: classes.MustFixed("Node", 2, 1),
		arr:  classes.MustRefArray("Object[]"),
		parr: classes.MustPrimArray("long[]"),
	}
	e.g = g1.New(h1Size, &vm.AddressSpace{}, classes, simclock.New(), nil)
	verifyFromEnv(e.g)
	return e
}

// verifyFromEnv gives a G1 built directly by g1.New the verifier that
// rt.NewSession registers on sessions: with TH_VERIFY=1 the full heap is
// checked before and after every pause, and the first violation panics
// with a check.Report.
func verifyFromEnv(g *g1.G1) {
	if os.Getenv("TH_VERIFY") == "1" {
		g.Hooks().Register(&envVerifier{g: g})
	}
}

type envVerifier struct {
	gc.BaseHook
	g *g1.G1
}

func (h *envVerifier) BeforeGC(p gc.Phase) { h.verify("before ", p) }
func (h *envVerifier) AfterGC(p gc.Phase)  { h.verify("after ", p) }

func (h *envVerifier) verify(when string, p gc.Phase) {
	if failures := h.g.VerifyNow(); len(failures) > 0 {
		panic(check.Report(when+p.String()+" GC", failures))
	}
}

func (e *env) node3(t *testing.T, left, right vm.Addr, v uint64) vm.Addr {
	t.Helper()
	a, err := e.g.Alloc(e.node)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	e.g.WriteRef(a, 0, left)
	e.g.WriteRef(a, 1, right)
	e.g.WritePrim(a, 0, v)
	return a
}

func (e *env) list(t *testing.T, n int) *vm.Handle {
	t.Helper()
	h := e.g.NewHandle(vm.NullAddr)
	for i := n - 1; i >= 0; i-- {
		// Allocate first, then read the handle: the allocation may trigger
		// a GC, and a raw address captured before it would be stale.
		a := e.node3(t, vm.NullAddr, vm.NullAddr, uint64(i))
		e.g.WriteRef(a, 0, h.Addr())
		h.Set(a)
	}
	return h
}

func (e *env) check(t *testing.T, h *vm.Handle, n int) {
	t.Helper()
	a := h.Addr()
	for i := 0; i < n; i++ {
		if a.IsNull() {
			t.Fatalf("list truncated at %d", i)
		}
		if v := e.g.ReadPrim(a, 0); v != uint64(i) {
			t.Fatalf("node %d = %d", i, v)
		}
		a = e.g.ReadRef(a, 0)
	}
}

func TestG1SurvivesYoungCollections(t *testing.T) {
	e := newEnv(t, 1<<20)
	h := e.list(t, 100)
	// Churn garbage to force several young GCs.
	for i := 0; i < 20; i++ {
		g := e.list(t, 500)
		e.g.Release(g)
	}
	if e.g.GCStats().MinorCount == 0 {
		t.Fatal("no young GCs ran")
	}
	e.check(t, h, 100)
}

func TestG1FullGCPreservesGraph(t *testing.T) {
	e := newEnv(t, 1<<20)
	h := e.list(t, 200)
	g := e.list(t, 1000)
	e.g.Release(g)
	if err := e.g.FullGC(); err != nil {
		t.Fatalf("full GC: %v", err)
	}
	e.check(t, h, 200)
}

func TestG1MixedCollectionsReclaim(t *testing.T) {
	e := newEnv(t, 1<<21)
	phases := &phaseCounter{}
	e.g.Hooks().Register(phases)
	h := e.list(t, 100)
	// Create long-lived garbage in old regions: tenure lists, then drop.
	var dead []*vm.Handle
	for i := 0; i < 32; i++ {
		dead = append(dead, e.list(t, 800))
		// Churn to age them into old regions.
		for j := 0; j < 4; j++ {
			tmp := e.list(t, 400)
			e.g.Release(tmp)
		}
	}
	for _, d := range dead {
		e.g.Release(d)
	}
	// Keep allocating: IHOP-triggered marking + mixed GCs reclaim.
	for i := 0; i < 30; i++ {
		tmp := e.list(t, 800)
		e.g.Release(tmp)
	}
	if e.g.OOM() != nil {
		t.Fatalf("unexpected OOM: %v", e.g.OOM())
	}
	e.check(t, h, 100)
	if e.g.GCStats().MajorCount == 0 {
		t.Fatal("no marking/mixed cycles ran")
	}
	if phases.n[gc.PhaseMixed] == 0 {
		t.Fatalf("no mixed collection ran (young %d, major %d)", phases.n[gc.PhaseMinor], phases.n[gc.PhaseMajor])
	}
}

// phaseCounter counts the collections of each phase.
type phaseCounter struct {
	gc.BaseHook
	n map[gc.Phase]int
}

func (p *phaseCounter) AfterGC(ph gc.Phase) {
	if p.n == nil {
		p.n = make(map[gc.Phase]int)
	}
	p.n[ph]++
}

func TestG1HumongousAllocAndReclaim(t *testing.T) {
	e := newEnv(t, 1<<21)             // region size 8KB → humongous > 4KB
	humWords := int(e.g.RegionSize()) // definitely humongous
	a, err := e.g.AllocPrimArray(e.parr, humWords)
	if err != nil {
		t.Fatalf("humongous alloc: %v", err)
	}
	h := e.g.NewHandle(a)
	e.g.WritePrim(a, 0, 99)
	e.g.WritePrim(a, humWords-1, 77)
	// Survive a full GC in place.
	if err := e.g.FullGC(); err != nil {
		t.Fatal(err)
	}
	if h.Addr() != a {
		t.Fatalf("humongous object moved: %v -> %v", a, h.Addr())
	}
	if e.g.ReadPrim(a, 0) != 99 || e.g.ReadPrim(a, humWords-1) != 77 {
		t.Fatal("humongous contents corrupted")
	}
	// Release and confirm the space comes back.
	used1, _ := e.g.HeapUsed()
	e.g.Release(h)
	if err := e.g.FullGC(); err != nil {
		t.Fatal(err)
	}
	used2, _ := e.g.HeapUsed()
	if used2 >= used1 {
		t.Fatalf("humongous run not reclaimed: %d -> %d", used1, used2)
	}
}

func TestG1HumongousFragmentationOOM(t *testing.T) {
	e := newEnv(t, 1<<20)                                 // 128 regions of 8KB (wait: 1MB/256=4KB regions)
	humWords := int(e.g.RegionSize()/vm.WordSize) * 3 / 4 // ~0.75 region each
	var held []*vm.Handle
	var sawOOM bool
	for i := 0; i < 4096; i++ {
		a, err := e.g.AllocPrimArray(e.parr, humWords)
		if err != nil {
			if _, ok := err.(*gc.OOMError); !ok {
				t.Fatalf("unexpected error type %T", err)
			}
			sawOOM = true
			break
		}
		held = append(held, e.g.NewHandle(a))
	}
	if !sawOOM {
		t.Fatal("expected humongous fragmentation OOM")
	}
	// Each humongous object wasted ~25% of its region: held objects must
	// number fewer than perfect packing would allow.
	if len(held) == 0 {
		t.Fatal("no humongous allocations succeeded")
	}
}

func TestG1SharedStructure(t *testing.T) {
	e := newEnv(t, 1<<20)
	// Root every node while allocating: each allocation may move the others.
	hs := e.g.NewHandle(e.node3(t, vm.NullAddr, vm.NullAddr, 5))
	ha := e.g.NewHandle(e.node3(t, vm.NullAddr, vm.NullAddr, 1))
	hb := e.g.NewHandle(e.node3(t, vm.NullAddr, vm.NullAddr, 2))
	e.g.WriteRef(ha.Addr(), 0, hs.Addr())
	e.g.WriteRef(hb.Addr(), 0, hs.Addr())
	e.g.Release(hs)
	for i := 0; i < 10; i++ {
		tmp := e.list(t, 400)
		e.g.Release(tmp)
	}
	if err := e.g.FullGC(); err != nil {
		t.Fatal(err)
	}
	sa, sb := e.g.ReadRef(ha.Addr(), 0), e.g.ReadRef(hb.Addr(), 0)
	if sa != sb {
		t.Fatalf("shared object duplicated: %v vs %v", sa, sb)
	}
	if e.g.ReadPrim(sa, 0) != 5 {
		t.Fatal("shared value corrupted")
	}
}

func TestG1CardTableOldToYoung(t *testing.T) {
	e := newEnv(t, 1<<20)
	h := e.list(t, 1)
	// Tenure the node.
	for i := 0; i < 8; i++ {
		tmp := e.list(t, 400)
		e.g.Release(tmp)
	}
	// Allocate the young node before reading the old node's address: the
	// allocation may move the (not yet tenured) holder.
	hy := e.g.NewHandle(e.node3(t, vm.NullAddr, vm.NullAddr, 321))
	e.g.WriteRef(h.Addr(), 1, hy.Addr())
	e.g.Release(hy) // now kept alive only by the old-to-young edge
	// Force young GCs via churn.
	for i := 0; i < 8; i++ {
		tmp := e.list(t, 400)
		e.g.Release(tmp)
	}
	got := e.g.ReadRef(h.Addr(), 1)
	if got.IsNull() {
		t.Fatal("young target lost")
	}
	if v := e.g.ReadPrim(got, 0); v != 321 {
		t.Fatalf("young target = %d", v)
	}
}

// TestG1CostTablePinned drives a fixed workload through young, mixed and
// full collections and pins the GC time it charges, so a change to any
// per-operation GC cost fails here by name.
func TestG1CostTablePinned(t *testing.T) {
	e := newEnv(t, 1<<21)
	phases := &phaseCounter{}
	e.g.Hooks().Register(phases)
	h := e.list(t, 100)
	var dead []*vm.Handle
	for i := 0; i < 8; i++ {
		dead = append(dead, e.list(t, 800))
		for j := 0; j < 4; j++ {
			e.g.Release(e.list(t, 400))
		}
	}
	for _, d := range dead {
		e.g.Release(d)
	}
	if err := e.g.MarkingCycle(); err != nil {
		t.Fatal(err)
	}
	// Old-to-young references put objects in dirty cards for the next
	// young collections.
	for round := 0; round < 4; round++ {
		for i := 0; i < 64; i++ {
			y := e.node3(t, vm.NullAddr, vm.NullAddr, uint64(i))
			a := h.Addr()
			for j := 0; j < i; j++ {
				a = e.g.ReadRef(a, 0)
			}
			e.g.WriteRef(a, 1, y)
		}
		for j := 0; j < 30; j++ {
			e.g.Release(e.list(t, 400))
		}
	}
	if err := e.g.FullGC(); err != nil {
		t.Fatal(err)
	}
	e.check(t, h, 100)
	if phases.n[gc.PhaseMinor] == 0 || phases.n[gc.PhaseMixed] == 0 || phases.n[gc.PhaseMajor] == 0 {
		t.Fatalf("workload must run every collection kind: %v", phases.n)
	}
	const wantMinor, wantMajor = 1222248 * time.Nanosecond, 406957 * time.Nanosecond
	if st := e.g.GCStats(); st.MinorTime != wantMinor || st.MajorTime != wantMajor {
		t.Fatalf("minor %d ns major %d ns, want %d and %d",
			st.MinorTime.Nanoseconds(), st.MajorTime.Nanoseconds(), wantMinor.Nanoseconds(), wantMajor.Nanoseconds())
	}
}

// oldHolder tenures one node into an old region and stores a reference
// to a fresh young node in its field 1. It returns the holder.
func (e *env) oldHolder(t *testing.T) vm.Addr {
	t.Helper()
	h := e.list(t, 1)
	for i := 0; !e.g.InOldForTest(h.Addr()); i++ {
		if i == 100 {
			t.Fatal("holder was not tenured into an old region")
		}
		e.g.Release(e.list(t, 400))
	}
	y := e.node3(t, vm.NullAddr, vm.NullAddr, 321)
	e.g.NewHandle(y)
	e.g.WriteRef(h.Addr(), 1, y)
	if f := e.g.VerifyNow(); len(f) != 0 {
		t.Fatalf("consistent heap reported %d violation(s): %v", len(f), f[0])
	}
	return h.Addr()
}

// findRule returns the first failure of rule, or fails the test.
func findRule(t *testing.T, failures []check.Failure, rule string) check.Failure {
	t.Helper()
	for _, f := range failures {
		if f.Rule == rule {
			return f
		}
	}
	t.Fatalf("no %s failure in %v", rule, failures)
	return check.Failure{}
}

// A clean card under an old holder of a young reference is the card rule's
// violation, located at that card, holder and field.
func TestG1VerifierCatchesCleanCard(t *testing.T) {
	e := newEnv(t, 1<<20)
	holder := e.oldHolder(t)
	ci := e.g.CleanCardForTest(holder)
	f := findRule(t, e.g.VerifyNow(), "h1-card-missing-dirty")
	if f.Card != ci || f.Holder != holder || f.Field != 1 {
		t.Fatalf("located at card %d holder %v field %d, want card %d holder %v field 1", f.Card, f.Holder, f.Field, ci, holder)
	}
}

// A start entry that is not the lowest object start in its card is the
// start-array rule's violation, located at that card.
func TestG1VerifierCatchesBadStartEntry(t *testing.T) {
	e := newEnv(t, 1<<20)
	holder := e.oldHolder(t)
	ci := e.g.CorruptStartForTest(holder)
	if f := findRule(t, e.g.VerifyNow(), "h1-start-array"); f.Card != ci {
		t.Fatalf("located at card %d, want %d", f.Card, ci)
	}
}
