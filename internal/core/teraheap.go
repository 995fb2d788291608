// Package core implements TeraHeap, the paper's primary contribution: a
// second, high-capacity managed heap (H2) memory-mapped over a fast
// storage device that coexists with the regular DRAM heap (H1).
//
// TeraHeap eliminates serialization/deserialization by giving the runtime
// direct access to H2 objects, and eliminates GC scans over H2 by
//
//   - a hint-based interface (TagRoot / Move) based on key-object
//     opportunism (§3.2),
//   - a region-based H2 organized by object lifetime with lazy bulk
//     reclamation, dependency lists for cross-region references, and an
//     optional Union-Find region-group mode (§3.3),
//   - a four-state card table, organized in slices and stripes aligned to
//     regions, tracking backward (H2→H1) references (§3.4),
//   - high/low occupancy thresholds that force movement under memory
//     pressure before a move hint arrives (§3.2), and
//   - per-region 2 MB promotion buffers writing objects to the device with
//     batched asynchronous I/O (§3.2).
//
// Both collectors (Parallel Scavenge in internal/gc, G1 in
// internal/baselines/g1) call a *TeraHeap directly; a nil *TeraHeap means
// the run has no H2.
package core

import (
	"fmt"
	"time"

	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/placement"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// promotionBufferBytes is the per-region staging buffer (paper: 2 MB).
const promotionBufferBytes = 2 * storage.MB

// GroupMode selects how cross-region references are tracked (§3.3).
type GroupMode int

// Cross-region tracking modes.
const (
	// DependencyLists tracks the direction of cross-region references in
	// per-region dependency lists (the paper's chosen design).
	DependencyLists GroupMode = iota
	// UnionFind merges referencing regions into groups, losing direction
	// (the simpler alternative the paper evaluates and rejects).
	UnionFind
)

// Config configures an H2 instance.
type Config struct {
	// H2Size is the capacity of the second heap in bytes.
	H2Size int64
	// RegionSize is the fixed region size in bytes.
	RegionSize int64
	// CardSegmentSize is the H2 card segment size in bytes.
	CardSegmentSize int64
	// HighThreshold is the H1 old-generation occupancy above which marked
	// objects are moved without waiting for a move hint (paper: 0.85).
	HighThreshold float64
	// LowThreshold, when >0, bounds forced movement: enough labels move to
	// bring H1 occupancy down to this fraction (paper experiment: 0.5).
	LowThreshold float64
	// EnableMoveHint honours h2_move; when false only the threshold
	// mechanism moves objects (the paper's "NH" configuration, Fig 9a).
	EnableMoveHint bool
	// GroupMode selects dependency lists or Union-Find groups.
	GroupMode GroupMode
	// PageSize for the H2 mapping (4 KB, or 2 MB huge pages for the Spark
	// ML workloads).
	PageSize int
	// CacheBytes is the DRAM page-cache budget for H2 (the DR2 share).
	CacheBytes int64

	// Ext enables the future-work extensions (dynamic thresholds,
	// size-segregated placement); zero value disables both.
	Ext Extensions
}

// DefaultConfig returns a TeraHeap configuration for an H2 of h2Size bytes
// on the given device-independent defaults.
func DefaultConfig(h2Size int64) Config {
	return Config{
		H2Size:          h2Size,
		RegionSize:      16 * storage.KB * 1024, // 16 MB
		CardSegmentSize: 4 * storage.KB,
		HighThreshold:   0.85,
		LowThreshold:    0.50,
		EnableMoveHint:  true,
		GroupMode:       DependencyLists,
		PageSize:        storage.DefaultPageSize,
		CacheBytes:      0,
	}
}

// TaggedRoot pairs a rooted handle with the label it was tagged with.
type TaggedRoot struct {
	Handle *vm.Handle
	Label  uint64
}

// TeraHeap is the second heap. The collectors hold it as a *TeraHeap that
// is nil when the run has no H2: only Contains is safe on a nil receiver.
type TeraHeap struct {
	cfg    Config
	clock  *simclock.Clock
	mapped *storage.MappedFile
	mem    *vm.Mem // object accessors over the shared address space

	regions     []*region
	freeRegions []int
	// openByLabel maps a label to its currently open region. Only a handful
	// of label chains are ever open at once, so a linear-scan slice beats a
	// map on the per-promoted-object openRegion path (and tolerates the
	// placement-policy bit in the label domain).
	openByLabel []openLabel

	cards *cardTable

	tagged []TaggedRoot
	// moveAdvised is a dense bitset indexed by label: frameworks assign
	// small sequential labels (RDD ids, superstep counters), and MoveOnMinor
	// is consulted once per scavenged object, so the lookup must not hash.
	// moveAdvisedBig catches the (unused in practice) huge-label tail.
	moveAdvised    []bool
	moveAdvisedBig map[uint64]bool

	// Threshold policy state.
	forceMove    bool
	pressureLive int64 // live-byte estimate backing the current arming
	pressureCap  int64 // old-generation capacity at arming time

	// spareBufs holds emptied promotion-buffer arrays (releaseBuf) for
	// the next region that stages an image (takeBuf).
	spareBufs []promoBuffer

	// Reusable scratch for freeDeadRegions' reachability pass.
	reachScratch []bool
	stackScratch []int

	// Dynamic-threshold controller state.
	consecTrips int
	calmCycles  int

	// inj, when non-nil, forces PrepareMove exhaustion and tears promotion
	// buffer flushes per the run's fault plan.
	inj *fault.Injector

	// admit, when non-nil, gates PrepareMove: the recovery layer's circuit
	// breaker returns false while H2 is held closed, routing promotions to
	// the §4 H1 fallback.
	admit func() bool

	// scrubCursor is the round-robin position of the opportunistic
	// checksum scrubber (ScrubStep).
	scrubCursor int

	// placement is the placement-policy seam for the H2 movement
	// decisions (young->H2 on minor GC, closure moves at major GC), handed
	// the hint/threshold decision as its default. placement.Default
	// returns that decision unchanged.
	placement placement.Policy

	stats Stats
}

// mappedMemory adapts a MappedFile to vm.Memory at vm.H2Base. It holds the
// TeraHeap rather than the file so mutator stores can keep the per-region
// checksum current (noteH2Store).
type mappedMemory struct {
	th *TeraHeap
}

func (m mappedMemory) Load(a vm.Addr) uint64 { return m.th.mapped.Load(a.Word(vm.H2Base)) }
func (m mappedMemory) Store(a vm.Addr, v uint64) {
	m.th.noteH2Store(a, v)
	m.th.mapped.Store(a.Word(vm.H2Base), v)
}
func (m mappedMemory) Peek(a vm.Addr) uint64 { return m.th.mapped.PeekWord(a.Word(vm.H2Base)) }
func (m mappedMemory) LoadRun(hdr, a vm.Addr, stride int, dst []uint64) {
	m.th.mapped.LoadRun(hdr.Word(vm.H2Base), a.Word(vm.H2Base), stride, dst)
}

// ConfigError is the typed error for an invalid TeraHeap configuration.
// Bad configurations come from user input (experiment sweeps, CLI flags),
// so they are reported as errors, not panics.
type ConfigError struct{ Reason string }

// Error describes the invalid configuration.
func (e *ConfigError) Error() string { return "core: invalid config: " + e.Reason }

// Validate checks the configuration for user-correctable mistakes.
func (cfg *Config) Validate() error {
	switch {
	case cfg.RegionSize <= 0 || cfg.H2Size < cfg.RegionSize:
		return &ConfigError{Reason: fmt.Sprintf("bad H2 geometry (size %d, region %d)", cfg.H2Size, cfg.RegionSize)}
	case cfg.CardSegmentSize <= 0:
		return &ConfigError{Reason: fmt.Sprintf("non-positive card segment size %d", cfg.CardSegmentSize)}
	case cfg.RegionSize%cfg.CardSegmentSize != 0:
		return &ConfigError{Reason: fmt.Sprintf("region size %d not a multiple of card segment size %d", cfg.RegionSize, cfg.CardSegmentSize)}
	case cfg.HighThreshold < 0 || cfg.HighThreshold > 1:
		return &ConfigError{Reason: fmt.Sprintf("high threshold %g outside [0,1]", cfg.HighThreshold)}
	case cfg.LowThreshold < 0 || cfg.LowThreshold > 1:
		return &ConfigError{Reason: fmt.Sprintf("low threshold %g outside [0,1]", cfg.LowThreshold)}
	case cfg.PageSize <= 0:
		return &ConfigError{Reason: fmt.Sprintf("non-positive page size %d", cfg.PageSize)}
	}
	return nil
}

// New builds a TeraHeap over dev, maps H2 into as at vm.H2Base, and reads
// objects through as and classes, which the collector built next shares.
// It panics on an invalid configuration; use NewChecked where bad configs
// must surface as a failed run rather than kill the process.
func New(cfg Config, dev *storage.Device, as *vm.AddressSpace, classes *vm.ClassTable, clock *simclock.Clock) *TeraHeap {
	th, err := NewChecked(cfg, dev, as, classes, clock)
	if err != nil {
		panic(err.Error())
	}
	return th
}

// NewChecked builds a TeraHeap, returning a *ConfigError instead of
// panicking when the configuration is invalid.
func NewChecked(cfg Config, dev *storage.Device, as *vm.AddressSpace, classes *vm.ClassTable, clock *simclock.Clock) (*TeraHeap, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Objects must not span regions, so region size bounds object size;
	// cap H2Size to a whole number of regions.
	numRegions := cfg.H2Size / cfg.RegionSize
	cfg.H2Size = numRegions * cfg.RegionSize

	th := &TeraHeap{
		cfg:       cfg,
		clock:     clock,
		mapped:    storage.NewMappedFile(dev, cfg.H2Size, cfg.PageSize, cfg.CacheBytes),
		mem:       vm.NewMem(as, classes),
		placement: placement.Default{},
	}
	as.Map(vm.H2Base, vm.H2Base+vm.Addr(cfg.H2Size), mappedMemory{th: th})
	th.cards = newCardTable(cfg, int(numRegions))
	return th, nil
}

// SetFaultInjector attaches the run's fault injector: forced PrepareMove
// exhaustion and torn promotion-buffer flushes. The same injector should
// be attached to the backing device so all decisions share one counter.
func (th *TeraHeap) SetFaultInjector(in *fault.Injector) { th.inj = in }

// SetAdmission installs (or, with nil, removes) the PrepareMove admission
// gate. The recovery layer's circuit breaker uses it to hold H2 closed
// after repeated persistent failures: a false return routes the promotion
// to the §4 keep-it-in-H1 fallback.
func (th *TeraHeap) SetAdmission(f func() bool) { th.admit = f }

// SetPlacementPolicy installs a placement policy over the H2 movement
// decisions; nil restores the default policy (the hint/threshold logic).
func (th *TeraHeap) SetPlacementPolicy(p placement.Policy) {
	if p == nil {
		p = placement.Default{}
	}
	th.placement = p
}

// Mapped exposes the underlying mapping (examples, tests, experiments).
func (th *TeraHeap) Mapped() *storage.MappedFile { return th.mapped }

// Config returns the active configuration.
func (th *TeraHeap) Config() Config { return th.cfg }

// --- Hint interface (§3.2) -------------------------------------------------

// TagRoot tags the root key-object held by h with a label, marking it (and
// later its transitive closure) as a candidate for H2 placement. This is
// the h2_tag_root(obj, label) call of the paper. Label 0 is reserved for
// untagged objects; a hint with label 0 is counted and ignored, the way
// the JVM ignores a malformed hint from application code rather than
// crashing the process.
func (th *TeraHeap) TagRoot(h *vm.Handle, label uint64) {
	if label == 0 {
		th.stats.InvalidHints++
		return
	}
	a := h.Addr()
	if a.IsNull() || vm.InH2(a) {
		return
	}
	th.mem.SetLabel(a, label)
	th.tagged = append(th.tagged, TaggedRoot{Handle: h, Label: label})
	th.stats.RootsTagged++
	th.clock.Charge(simclock.Other, 50*time.Nanosecond) // native call
}

// Move advises TeraHeap to move all objects tagged with label to H2 during
// the next major GC. This is the h2_move(label) call of the paper. When
// move hints are disabled (Fig 9a's NH configuration) the call is a no-op
// and movement relies on the threshold mechanism alone.
func (th *TeraHeap) Move(label uint64) {
	if label == 0 {
		th.stats.InvalidHints++
		return
	}
	th.clock.Charge(simclock.Other, 50*time.Nanosecond)
	if !th.cfg.EnableMoveHint {
		return
	}
	th.setAdvised(label)
	th.stats.MoveHints++
}

// denseLabelLimit bounds the dense advised bitset; labels above it (never
// produced by the in-tree frameworks) spill to the overflow map.
const denseLabelLimit = 1 << 20

// setAdvised records label's move hint.
func (th *TeraHeap) setAdvised(label uint64) {
	if label < denseLabelLimit {
		if label >= uint64(len(th.moveAdvised)) {
			grown := make([]bool, label+1)
			copy(grown, th.moveAdvised)
			th.moveAdvised = grown
		}
		th.moveAdvised[label] = true
		return
	}
	if th.moveAdvisedBig == nil {
		th.moveAdvisedBig = make(map[uint64]bool)
	}
	th.moveAdvisedBig[label] = true
}

// advised reports whether label's move hint was recorded.
func (th *TeraHeap) advised(label uint64) bool {
	if label < uint64(len(th.moveAdvised)) {
		return th.moveAdvised[label]
	}
	return th.moveAdvisedBig != nil && th.moveAdvisedBig[label]
}

// --- Collector protocol: mutator-side ---------------------------------------

// Contains is the reference range check. A nil TeraHeap contains nothing:
// it is the one method the collectors call without a nil check, on every
// reference in the barrier, scavenge and mark loops.
func (th *TeraHeap) Contains(a vm.Addr) bool {
	return th != nil && a >= vm.H2Base && a < vm.H2Base+vm.Addr(th.cfg.H2Size)
}

// DirtyCard marks the card of an updated H2 object dirty (post-write
// barrier).
func (th *TeraHeap) DirtyCard(a vm.Addr) {
	th.cards.set(th.segmentOf(a), cardDirty)
}

// --- Collector protocol: movement --------------------------------------------

// MoveOnMinor reports whether label's objects promote straight from the
// young generation to H2 (the label's move hint has been issued; forced
// movement under pressure runs through the major-GC closure instead,
// where advised groups go first and the budget applies).
func (th *TeraHeap) MoveOnMinor(label uint64) bool {
	return th.placement.MoveToH2OnMinor(label, th.Advised(label))
}

// Advised reports whether label's move hint was issued.
func (th *TeraHeap) Advised(label uint64) bool {
	return th.cfg.EnableMoveHint && th.advised(label)
}

// ShouldMoveLabel implements the hint + high/low threshold policy: an
// advised label always moves; under pressure, unadvised (possibly still
// mutable) labels move only while the projected H1 live volume remains
// above the relief target — the low threshold when set, otherwise the
// high threshold.
func (th *TeraHeap) ShouldMoveLabel(label uint64, selectedWords int64) bool {
	return th.placement.MoveClosureAtMajor(label, th.shouldMoveLabelLegacy(label, selectedWords))
}

// shouldMoveLabelLegacy is the pre-policy-plane decision, verbatim.
func (th *TeraHeap) shouldMoveLabelLegacy(label uint64, selectedWords int64) bool {
	if th.cfg.EnableMoveHint && th.advised(label) {
		return true
	}
	if !th.forceMove {
		return false
	}
	if th.cfg.LowThreshold <= 0 {
		// No low threshold: every marked object moves (§3.2 / Fig 9b NL).
		return true
	}
	// Bounded forced movement: move until the projected live volume is
	// back at the low threshold.
	remaining := th.pressureLive - selectedWords*vm.WordSize
	return float64(remaining) > th.cfg.LowThreshold*float64(th.pressureCap)
}

// TaggedRoots returns live tagged roots, pruning entries whose key object
// has already moved to H2 or been released.
func (th *TeraHeap) TaggedRoots() []TaggedRoot {
	live := th.tagged[:0]
	for _, tr := range th.tagged {
		a := tr.Handle.Addr()
		if a.IsNull() || th.Contains(a) {
			continue
		}
		live = append(live, tr)
	}
	th.tagged = live
	return th.tagged
}

// BeginMajorMark resets region live bits and disarms forced movement for
// the cycle: the threshold decision is re-made by EvaluatePressure once
// marking has measured the live volume that would REMAIN in H1 after the
// advised (hinted) groups leave — so pressure that the hints already
// relieve never forces still-mutable groups out (§3.2).
func (th *TeraHeap) BeginMajorMark() {
	for _, r := range th.regions {
		if r != nil {
			r.live = false
			r.groupLive = false
		}
	}
	th.forceMove = false
	th.pressureLive = 0
	th.pressureCap = 0
}

// EvaluatePressure arms or disarms forced movement given the H1 live
// volume marking measured against the old generation's capacity.
func (th *TeraHeap) EvaluatePressure(liveBytes, oldCapacity int64) {
	occ := 0.0
	if oldCapacity > 0 {
		occ = float64(liveBytes) / float64(oldCapacity)
	}
	if occ > th.cfg.HighThreshold {
		if !th.forceMove {
			th.stats.HighThresholdTrips++
		}
		th.forceMove = true
		th.pressureLive = liveBytes
		th.pressureCap = oldCapacity
	} else {
		th.forceMove = false
		th.pressureLive = 0
		th.pressureCap = 0
	}
	th.adaptThresholds(th.forceMove)
}

// NoteForwardRef marks the region containing target live.
func (th *TeraHeap) NoteForwardRef(target vm.Addr) {
	r := th.regionOf(target)
	if r == nil {
		return
	}
	th.stats.ForwardRefs++
	if th.cfg.GroupMode == UnionFind {
		th.regions[th.find(r.id)].groupLive = true
		return
	}
	r.live = true
}

// FinishMajor frees dead regions in bulk (§3.3). Threshold arming lives
// entirely within the marking phase (EvaluatePressure).
func (th *TeraHeap) FinishMajor() {
	th.freeDeadRegions()
}
