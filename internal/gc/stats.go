package gc

import (
	"time"

	"github.com/carv-repro/teraheap-go/internal/simclock"
)

// CycleKind distinguishes minor from major collections.
type CycleKind int

// Collection kinds.
const (
	Minor CycleKind = iota
	Major
)

// String names the cycle kind.
func (k CycleKind) String() string {
	if k == Minor {
		return "minor"
	}
	return "major"
}

// MajorPhase indexes the four phases of a full collection (§4).
type MajorPhase int

// Major GC phases.
const (
	PhaseMark MajorPhase = iota
	PhasePrecompact
	PhaseAdjust
	PhaseCompact
	NumMajorPhases
)

// String names the major GC phase using the paper's Fig 11(b) labels.
func (p MajorPhase) String() string {
	switch p {
	case PhaseMark:
		return "Marking"
	case PhasePrecompact:
		return "Precompact"
	case PhaseAdjust:
		return "Adjust"
	case PhaseCompact:
		return "Compact"
	}
	return "?"
}

// Cycle records one collection, feeding the paper's Fig 7 timeline and
// Fig 11(b) phase breakdown.
type Cycle struct {
	Kind     CycleKind
	At       time.Duration // simulated time at cycle end
	Duration time.Duration
	// Phases holds per-phase durations for major cycles.
	Phases [NumMajorPhases]time.Duration

	BytesCopied       int64 // scavenge copies or compaction moves within H1
	BytesPromoted     int64 // young -> old
	BytesMovedToH2    int64
	ObjectsMovedH2    int64
	OldOccupancyAfter float64
	ReclaimedBytes    int64 // old-gen bytes freed (major only)
	ForwardRefs       int64 // H1 -> H2 references fenced (major only)
	CardsScanned      int64
}

// Stats aggregates collector activity.
type Stats struct {
	Cycles []Cycle

	MinorCount int
	MajorCount int

	MinorTime time.Duration
	MajorTime time.Duration

	BytesAllocated    int64
	ObjectsAllocated  int64
	BarrierExecutions int64
}

func (s *Stats) record(cy Cycle) {
	s.Cycles = append(s.Cycles, cy)
	if cy.Kind == Minor {
		s.MinorCount++
		s.MinorTime += cy.Duration
	} else {
		s.MajorCount++
		s.MajorTime += cy.Duration
	}
}

// PhaseTotals sums per-phase major GC time across all cycles.
func (s *Stats) PhaseTotals() [NumMajorPhases]time.Duration {
	var t [NumMajorPhases]time.Duration
	for _, cy := range s.Cycles {
		if cy.Kind != Major {
			continue
		}
		for p := 0; p < int(NumMajorPhases); p++ {
			t[p] += cy.Phases[p]
		}
	}
	return t
}

// categoryFor maps a cycle kind to its clock category.
func categoryFor(k CycleKind) simclock.Category {
	if k == Minor {
		return simclock.MinorGC
	}
	return simclock.MajorGC
}
