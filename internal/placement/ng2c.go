package placement

import "github.com/carv-repro/teraheap-go/internal/vm"

// The NG2C-style allocation-site pretenuring profiler's thresholds
// ("NG2C: Pretenuring Garbage Collection with Dynamic Generations for
// HotSpot Big Data Applications", ISMM'17).
const (
	// ng2cPromoteThreshold is the number of age-based tenurings a site
	// must accumulate before the profiler flips it to the pretenure state
	// (subsequent allocations go straight to the old generation and
	// survivors skip the survivor spaces).
	ng2cPromoteThreshold = 16
	// ng2cDemoteThreshold is the number of dead pretenured objects a site
	// may accumulate before it is demoted back to young allocation (the
	// paper's misprediction correction).
	ng2cDemoteThreshold = 64
	// ng2cGenerations is the number of survivor-free target generations
	// pretenured sites are spread across (round-robin by flip order).
	// The simulated old space is a single physical space, so target
	// generations are an accounting dimension: per-generation placement
	// counters for the pretenure figure.
	ng2cGenerations = 3
)

// ng2cSite is the per-allocation-site profile. Sites live in a dense
// slab indexed by class ID so hot-path decisions never hash or allocate.
type ng2cSite struct {
	survivals  int64 // scavenge copies that stayed in the young gen
	promotions int64 // age-based tenurings observed
	pretenured int64 // direct old-generation placements
	deadPret   int64 // pretenured objects found dead at major GC
	pretenure  bool  // site state: allocate straight into the old gen
	gen        uint8 // target generation index (accounting)
	seen       bool  // any activity observed
}

// NG2C is the allocation-site pretenuring policy. All state transitions
// are driven purely by the deterministic decision/feedback call stream,
// so two processes running the same workload build byte-identical
// profiles.
type NG2C struct {
	sites []ng2cSite
	flips int // young->pretenure transitions, drives generation assignment

	early     int64
	mispred   int64
	demotions int64
	gens      [ng2cGenerations]int64
}

// NewNG2C builds the profiler.
func NewNG2C() *NG2C { return &NG2C{sites: make([]ng2cSite, 1024)} }

// site returns the profile slot for s, growing the dense slab on first
// contact with a new class-ID range. Growth is bounded by the class-ID
// space (64Ki entries), so steady-state decisions never allocate.
func (p *NG2C) site(s Site) *ng2cSite {
	i := int(s) & siteMask
	if i >= len(p.sites) {
		n := len(p.sites)
		for n <= i {
			n *= 2
		}
		grown := make([]ng2cSite, n)
		copy(grown, p.sites)
		p.sites = grown
	}
	st := &p.sites[i]
	st.seen = true
	return st
}

// Name implements Policy.
func (p *NG2C) Name() string { return "ng2c" }

// AllocTarget implements Policy: sites in the pretenure state allocate
// directly into the old generation; everything else follows the legacy
// eden path.
func (p *NG2C) AllocTarget(site Site, _ int, _ bool) AllocDecision {
	if p.site(site).pretenure {
		return AllocOld
	}
	return AllocDefault
}

// Promote implements Policy: pretenured sites are survivor-free (their
// objects tenure at the first scavenge); other sites use the age
// threshold.
func (p *NG2C) Promote(site Site, age, tenureAge int) bool {
	return p.site(site).pretenure || age >= tenureAge
}

// MoveToH2OnMinor implements Policy: NG2C changes H1 placement only, so
// the H2 move-hint decision is the legacy one.
func (p *NG2C) MoveToH2OnMinor(_ uint64, advised bool) bool { return advised }

// MoveClosureAtMajor implements Policy (legacy pass-through).
func (p *NG2C) MoveClosureAtMajor(_ uint64, legacy bool) bool { return legacy }

// NoteScavenge implements Policy: accumulates per-site survival counts
// and flips a site to the pretenure state once its age-based promotions
// reach the threshold.
func (p *NG2C) NoteScavenge(site Site, _ int, promoted bool) {
	st := p.site(site)
	if !promoted {
		st.survivals++
		return
	}
	st.promotions++
	if st.pretenure {
		// Survivor-free promotion: the site profile said long-lived and
		// the object tenured at its first scavenge.
		p.early++
		return
	}
	if st.promotions >= ng2cPromoteThreshold {
		st.pretenure = true
		st.gen = uint8(p.flips % ng2cGenerations)
		p.flips++
	}
}

// NoteDeadOld implements Policy: dead pretenured objects are
// mispredictions; a site accumulating enough of them demotes back to
// young allocation and its profile restarts.
func (p *NG2C) NoteDeadOld(status uint64) {
	if status&vm.FlagPretenured == 0 {
		return
	}
	st := p.site(SiteFromStatus(status))
	st.deadPret++
	p.mispred++
	if st.pretenure && st.deadPret >= ng2cDemoteThreshold {
		st.pretenure = false
		st.promotions = 0
		st.deadPret = 0
		p.demotions++
	}
}

// NotePretenured implements Policy.
func (p *NG2C) NotePretenured(site Site) {
	st := p.site(site)
	st.pretenured++
	p.gens[st.gen]++
}

// Stats implements Policy.
func (p *NG2C) Stats() Stats {
	s := Stats{Policy: "ng2c", Mispredictions: p.mispred, Demotions: p.demotions, EarlyPromotions: p.early}
	for i := range p.sites {
		st := &p.sites[i]
		if !st.seen {
			continue
		}
		s.SitesProfiled++
		if st.pretenure {
			s.SitesPretenured++
		}
		s.PretenuredObjects += st.pretenured
	}
	s.Generations = append(s.Generations, p.gens[:]...)
	return s
}
