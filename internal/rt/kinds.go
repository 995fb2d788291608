package rt

import (
	"fmt"
	"strings"

	"github.com/carv-repro/teraheap-go/internal/baselines/g1"
	"github.com/carv-repro/teraheap-go/internal/placement"
	"github.com/carv-repro/teraheap-go/internal/storage"
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
	// the kind has them). Builders must not read kindTable: Go would
	// report an initialization cycle.
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

func buildPS(s *Session) {
	s.Runtime = NewJVM(Options{H1Size: s.Spec.H1Size, HeapCfg: s.Spec.HeapCfg, Costs: s.Spec.Costs}, s.Classes, s.Clock)
}

// buildPSH2 is the PS + TeraHeap builder the TH, NG2C and Deca kinds
// share: H2 on a device of kind dev (when Spec.DeviceKind is zero), and
// the placement policy newPolicy builds (nil keeps the default policy).
func buildPSH2(newPolicy func() placement.Policy, dev storage.Kind) func(*Session) {
	return func(s *Session) {
		jvm := NewJVM(Options{H1Size: s.Spec.H1Size, HeapCfg: s.Spec.HeapCfg, Costs: s.Spec.Costs,
			TH: s.Spec.TH, H2Device: s.device(dev)}, s.Classes, s.Clock)
		if newPolicy != nil {
			s.Placement = newPolicy()
			jvm.SetPlacementPolicy(s.Placement)
		}
		s.Runtime = jvm
		s.TH = jvm.TeraHeap()
	}
}

func newNG2C() placement.Policy { return placement.NewNG2C(placement.DefaultNG2CConfig()) }
func newDeca() placement.Policy { return placement.NewDeca() }

func buildG1(s *Session) { s.Runtime = g1.New(s.g1Config(), s.Classes, s.Clock) }

func buildG1TH(s *Session) {
	s.Runtime, s.TH = g1.NewWithTeraHeap(s.g1Config(), *s.Spec.TH, s.device(storage.NVMeSSD), s.Classes, s.Clock)
}

func buildMO(s *Session) {
	s.Runtime = NewMemoryModeJVM(s.Spec.H1Size, s.Spec.DRAMCacheBytes, s.device(storage.NVMeSSD), s.Classes, s.Clock)
}

func buildPanthera(s *Session) {
	s.Runtime = NewPantheraJVM(s.Spec.H1Size, s.Spec.DRAMOldBytes, s.device(storage.NVMeSSD), s.Classes, s.Clock)
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
