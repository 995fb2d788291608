package core

import "time"

// RegionSnapshot records per-region liveness for the paper's Fig 10 CDFs:
// reclaimed regions contribute 0% live; regions active at shutdown are
// measured by AnalyzeLiveRegions.
type RegionSnapshot struct {
	RegionID       int
	Reclaimed      bool
	LiveObjectsPct float64 // % of the region's objects that are live
	LiveSpacePct   float64 // % of the region's allocated space that is live
	UnusedPct      float64 // % of region capacity never allocated
}

// Stats aggregates TeraHeap activity.
type Stats struct {
	RootsTagged int64
	MoveHints   int64

	ObjectsMoved int64
	BytesMoved   int64

	RegionsAllocated int64
	RegionsReclaimed int64
	BytesReclaimed   int64

	ForwardRefs     int64
	CrossRegionRefs int64
	DepNodes        int64

	CardsScanned          int64
	H2ObjectsScanned      int64
	MinorCardsScanned     int64
	MinorH2ObjectsScanned int64
	// MinorScanTime is the total time of minor-GC H2 card scans (Fig 11a).
	MinorScanTime time.Duration

	BufferFlushes      int64
	HighThresholdTrips int64
	DynamicAdjustments int64

	// Robustness counters: hint calls rejected for invalid labels, forced
	// PrepareMove failures injected by the fault plane, and promotion-buffer
	// flushes replayed after an injected torn write.
	InvalidHints      int64
	ForcedExhaustions int64
	TornFlushReplays  int64

	// Recovery counters: regions whose backing blocks failed persistently
	// (write failure at flush, or a scrub-detected checksum mismatch),
	// scrub passes that found a mismatch, and regions retired after
	// salvage.
	RegionsFailed      int64
	ScrubMismatches    int64
	RegionsQuarantined int64

	RegionSnapshots []RegionSnapshot
}

// Stats returns a snapshot of the accumulated counters.
func (th *TeraHeap) Stats() Stats { return th.stats }

// Per-region DRAM metadata model for Table 5, mirroring Figure 2's
// metadata: a region-array entry (head/start/top pointers + live bit,
// padded), an average dependency list, and promotion-buffer bookkeeping.
const (
	regionEntryBytes = 48  // head ptr, start ptr, top ptr, live, padding
	depNodeBytes     = 24  // region ptr + next ptr + allocator header
	bufferEntryBytes = 128 // buffer descriptor
	assumedAvgDepLen = 10  // paper: ~10 nodes per region on average
)

// MetadataBytesPerRegion models the DRAM metadata cost of one region.
func MetadataBytesPerRegion(avgDeps int) int64 {
	if avgDeps < 0 {
		avgDeps = 0
	}
	return regionEntryBytes + int64(avgDeps)*depNodeBytes + bufferEntryBytes
}

// MetadataBytesPerTB reproduces Table 5: total DRAM metadata for 1 TB of
// H2 at the given region size, assuming the paper's average dependency
// list length.
func MetadataBytesPerTB(regionSizeBytes int64) int64 {
	if regionSizeBytes <= 0 {
		return 0
	}
	regions := (int64(1) << 40) / regionSizeBytes
	return regions * MetadataBytesPerRegion(assumedAvgDepLen)
}
