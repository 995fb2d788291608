package core

import "github.com/carv-repro/teraheap-go/internal/vm"

// Extensions beyond the paper's evaluated system, implementing the future
// work it proposes:
//
//   - Dynamic threshold adjustment (§7.2: "there may be benefits in
//     setting the low and high thresholds dynamically, we leave this for
//     future work").
//   - Size-aware object placement in H2 (§7.3: "future work can
//     investigate object placement policies for H2 that take into account
//     object size to further improve space efficiency"): big objects go
//     to a segregated region chain per label, so a large dead array can
//     no longer pin a region full of small live objects.

// Extension knobs (zero values disable both extensions).
type Extensions struct {
	// DynamicThresholds enables the adaptive controller: consecutive
	// high-threshold trips lower the low threshold (move more per forced
	// cycle); sustained calm raises it back (move less, keep data in H1).
	// The adaptive low threshold stays between 0.25 and the high
	// threshold minus 0.10.
	DynamicThresholds bool

	// SizeSegregatedRegions places objects of at least a card segment's
	// worth of bytes in a separate region chain for their label.
	SizeSegregatedRegions bool
}

// bigLabelBit tags the segregated chain of a label. Labels are
// framework-assigned small integers; the top bit is reserved for the
// placement policy.
const bigLabelBit = uint64(1) << 63

// placementLabel maps (label, object size) to the region chain it should
// be placed in.
func (th *TeraHeap) placementLabel(label uint64, sizeWords int) uint64 {
	if !th.cfg.Ext.SizeSegregatedRegions {
		return label
	}
	if sizeWords >= int(th.cfg.CardSegmentSize/vm.WordSize) {
		return label | bigLabelBit
	}
	return label
}

// adaptThresholds is the dynamic controller, run once per major GC after
// the threshold decision.
func (th *TeraHeap) adaptThresholds(tripped bool) {
	if !th.cfg.Ext.DynamicThresholds {
		return
	}
	const floor = 0.25
	ceil := th.cfg.HighThreshold - 0.10
	if tripped {
		th.consecTrips++
		th.calmCycles = 0
		if th.consecTrips >= 2 && th.cfg.LowThreshold > floor {
			// Sustained pressure: evacuate deeper each forced cycle.
			th.cfg.LowThreshold -= 0.05
			if th.cfg.LowThreshold < floor {
				th.cfg.LowThreshold = floor
			}
			th.stats.DynamicAdjustments++
		}
	} else {
		th.consecTrips = 0
		th.calmCycles++
		if th.calmCycles >= 4 && th.cfg.LowThreshold > 0 && th.cfg.LowThreshold < ceil {
			// Sustained calm: keep more data in H1.
			th.cfg.LowThreshold += 0.05
			if th.cfg.LowThreshold > ceil {
				th.cfg.LowThreshold = ceil
			}
			th.stats.DynamicAdjustments++
		}
	}
}

// LowThresholdNow exposes the (possibly adapted) low threshold.
func (th *TeraHeap) LowThresholdNow() float64 { return th.cfg.LowThreshold }
