package rt

import (
	"fmt"
	"strings"

	"github.com/carv-repro/teraheap-go/internal/baselines/g1"
	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/heap"
	"github.com/carv-repro/teraheap-go/internal/placement"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// KindInfo describes one runtime kind in the single registry that the
// CLI, serve-config parsing, metrics row labels, the experiment runners,
// and NewSession all read. A kind is exactly one table row: its names,
// whether it carries an H2 second heap, and the builder NewSession runs —
// there are no parallel enums or construction switches to keep in sync.
// The cross-cutting layers every kind gets (rt.Layers) are wired by
// NewSession around the builder.
type KindInfo struct {
	Kind Kind
	// Name is the canonical name: CLI arguments, serve `kinds=` config,
	// and serve metrics rows all use it.
	Name string
	// SparkLabel is the row-label component the Spark figure tables use
	// (historically distinct from Name for PS and MO).
	SparkLabel string
	// Aliases are accepted alternate spellings for CLI/config parsing.
	Aliases []string
	// TeraHeap reports whether the kind carries an H2 second heap; such
	// kinds require Spec.TH and are sized by THSizing.
	TeraHeap bool

	// build constructs the kind's runtime into a session whose clock and
	// class table are resolved, setting Runtime (and TH/Placement where
	// the kind has them). Every builder follows one order: the address
	// space, then the TeraHeap mapped into it (kinds with H2), then the
	// collector over that address space with the TeraHeap passed in (nil
	// without H2). Builders must not read kindTable: Go would report an
	// initialization cycle.
	build func(s *Session)
}

// kindTable is the registry. Table order is display and sweep order:
// the six paper configurations first, then the pretenuring/lifetime
// additions.
var kindTable = []KindInfo{
	{Kind: KindPS, Name: "ps", SparkLabel: "spark-sd", Aliases: []string{"sd"}, build: buildPS},
	{Kind: KindTH, Name: "th", SparkLabel: "th", TeraHeap: true, build: buildPSH2(nil, storage.NVMeSSD)},
	{Kind: KindG1, Name: "g1", SparkLabel: "g1", build: buildG1},
	{Kind: KindMO, Name: "mo", SparkLabel: "spark-mo", Aliases: []string{"spark-mo"}, build: buildMO},
	{Kind: KindPanthera, Name: "panthera", SparkLabel: "panthera", build: buildPanthera},
	{Kind: KindG1TH, Name: "g1+th", SparkLabel: "g1+th", Aliases: []string{"g1th"}, TeraHeap: true, build: buildG1TH},
	{Kind: KindNG2C, Name: "ng2c", SparkLabel: "ng2c", TeraHeap: true, build: buildPSH2(newNG2C, storage.NVMeSSD)},
	// Deca's lifetime regions live in memory: its H2 defaults to a
	// DRAM-cost device.
	{Kind: KindDeca, Name: "deca", SparkLabel: "deca", TeraHeap: true, build: buildPSH2(newDeca, storage.DRAM)},
}

func buildPS(s *Session) { s.Runtime = newDRAMCollector(s, nil) }

// buildPSH2 is the PS + TeraHeap builder the TH, NG2C and Deca kinds
// share: H2 on a device of kind dev (when Spec.DeviceKind is zero), and
// the placement policy newPolicy builds, installed on the collector and
// on H2's movement decisions (nil keeps the default policy).
func buildPSH2(newPolicy func() placement.Policy, dev storage.Kind) func(*Session) {
	return func(s *Session) {
		col := newDRAMCollector(s, s.device(dev))
		if newPolicy != nil {
			s.Placement = newPolicy()
			col.SetPlacementPolicy(s.Placement)
			s.TH.SetPlacementPolicy(s.Placement)
		}
		s.Runtime = col
	}
}

func newNG2C() placement.Policy { return placement.NewNG2C() }
func newDeca() placement.Policy { return placement.NewDeca() }

// newDRAMCollector builds a PS collector over a DRAM H1 (Spec.HeapCfg,
// else the default geometry for Spec.H1Size), with a second heap on h2
// (the session's TH) when h2 is non-nil.
func newDRAMCollector(s *Session, h2 *storage.Device) *gc.Collector {
	as := &vm.AddressSpace{}
	if h2 != nil {
		s.TH = core.New(*s.Spec.TH, h2, as, s.Classes, s.Clock)
	}
	hc := heap.DefaultConfig(s.Spec.H1Size)
	if s.Spec.HeapCfg != nil {
		hc = *s.Spec.HeapCfg
	}
	return gc.New(heap.New(hc, as), as, s.Classes, s.Clock, s.TH)
}

func buildG1(s *Session) { s.Runtime = newG1(s, nil) }

// buildG1TH is the §7.1 "TeraHeap can also be used with G1" configuration:
// a G1 heap with an attached second heap on an NVMe device.
func buildG1TH(s *Session) { s.Runtime = newG1(s, s.device(storage.NVMeSSD)) }

// newG1 builds a G1 runtime over Spec.H1Size, with a second heap on h2
// (the session's TH) when h2 is non-nil.
func newG1(s *Session, h2 *storage.Device) *g1.G1 {
	as := &vm.AddressSpace{}
	if h2 != nil {
		s.TH = core.New(*s.Spec.TH, h2, as, s.Classes, s.Clock)
	}
	return g1.New(s.Spec.H1Size, as, s.Classes, s.Clock, s.TH)
}

// buildMO is the Spark-MO baseline: the whole of H1 lives on NVM in
// memory mode, with Spec.DRAMCacheBytes of DRAM acting as a hardware-
// managed cache in front of it. Like Panthera, it prices the session
// device, which is NVM only when Spec.DeviceKind says so (Fig 12 does).
func buildMO(s *Session) {
	size := s.Spec.H1Size
	mapped := storage.NewMappedFile(s.device(storage.NVMeSSD), size, storage.DefaultPageSize, s.Spec.DRAMCacheBytes)
	as := &vm.AddressSpace{}
	as.Map(vm.H1Base, vm.H1Base+vm.Addr(size), mappedVMMemory{f: mapped, base: vm.H1Base})
	s.Runtime = gc.New(heap.NewUnmapped(heap.DefaultConfig(size)), as, s.Classes, s.Clock, nil)
}

// buildPanthera is the Panthera baseline: the young generation and
// Spec.DRAMOldBytes of the old generation in DRAM, the rest of the old
// generation directly on NVM (App Direct), with cold framework data
// pretenured into the old generation. Major GC scans the entire heap,
// including the NVM part — Panthera's fundamental cost (§7.5).
func buildPanthera(s *Session) {
	nvm := s.device(storage.NVMeSSD)
	h1 := heap.NewUnmapped(heap.DefaultConfig(s.Spec.H1Size))
	as := &vm.AddressSpace{}
	// DRAM covers young generation plus the DRAM share of the old gen.
	dramEnd := min(h1.Old.Start+vm.Addr(s.Spec.DRAMOldBytes), h1.Old.End)
	as.Map(vm.H1Base, dramEnd, vm.NewRAM(vm.H1Base, int64(dramEnd-vm.H1Base)))
	if dramEnd < h1.Old.End {
		as.Map(dramEnd, h1.Old.End, newNVMDirectMemory(dramEnd, int64(h1.Old.End-dramEnd), nvm, s.Clock))
	}
	col := gc.New(h1, as, s.Classes, s.Clock, nil)
	col.PretenureCold = true
	s.Runtime = col
}

// Kinds returns the registered kinds in registry order. The slice is a
// copy; callers may not mutate registry state.
func Kinds() []KindInfo {
	out := make([]KindInfo, len(kindTable))
	copy(out, kindTable)
	return out
}

// Info returns the registry entry for k. Unregistered values get a
// synthetic entry whose Name is Kind(N), so diagnostics never panic.
func (k Kind) Info() KindInfo {
	for _, e := range kindTable {
		if e.Kind == k {
			return e
		}
	}
	return KindInfo{Kind: k, Name: fmt.Sprintf("Kind(%d)", int(k)), SparkLabel: fmt.Sprintf("Kind(%d)", int(k))}
}

// String names the kind (the registry's canonical name).
func (k Kind) String() string { return k.Info().Name }

// SparkLabel returns the Spark-figure row label component for k.
func (k Kind) SparkLabel() string { return k.Info().SparkLabel }

// KindByName resolves a canonical name or alias to its kind.
func KindByName(s string) (Kind, bool) {
	for _, e := range kindTable {
		if e.Name == s {
			return e.Kind, true
		}
		for _, a := range e.Aliases {
			if a == s {
				return e.Kind, true
			}
		}
	}
	return 0, false
}

// KindsByName resolves a kind list: empty means every registered kind in
// registry order; otherwise each name (or alias) in the order given. An
// unknown name is an error naming the valid set.
func KindsByName(names []string) ([]Kind, error) {
	if len(names) == 0 {
		out := make([]Kind, len(kindTable))
		for i, e := range kindTable {
			out[i] = e.Kind
		}
		return out, nil
	}
	out := make([]Kind, 0, len(names))
	for _, n := range names {
		k, ok := KindByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown runtime kind %q (valid: %s)", n, strings.Join(KindNames(), " "))
		}
		out = append(out, k)
	}
	return out, nil
}

// KindNames returns the canonical kind names in registry order; error
// messages for unknown kinds name this set.
func KindNames() []string {
	out := make([]string, len(kindTable))
	for i, e := range kindTable {
		out[i] = e.Name
	}
	return out
}
