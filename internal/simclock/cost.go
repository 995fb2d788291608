package simclock

import "time"

// The GC and barrier cost table: per-operation CPU prices in virtual time,
// read by both collectors and by TeraHeap's H2 card scan. Device I/O is
// priced separately by internal/storage. The values approximate a 2.4 GHz
// server core.
const (
	// CopyPerByte prices memcpy during scavenge, evacuation and
	// compaction. time.Nanosecond/4 truncates to 0: copy volume costs no
	// simulated time. The intended ~4 GB/s per thread needs sub-nanosecond
	// pricing, a model change left open (see ROADMAP).
	CopyPerByte   = time.Nanosecond / 4
	ScanPerRef    = 12 * time.Nanosecond   // following one reference
	MarkPerObject = 18 * time.Nanosecond   // visiting one object in mark phase
	PerCard       = 2 * time.Nanosecond    // examining one card table entry
	PerCardObject = 10 * time.Nanosecond   // scanning one object found in a dirty card
	BarrierCost   = 1 * time.Nanosecond    // one post-write barrier execution
	PausePerGC    = 200 * time.Microsecond // fixed safepoint/start/stop overhead
	// StealSyncCost models the work-stealing and termination-barrier
	// overhead of one gang synchronization point; charged once per barrier
	// (minor GC: 1; major GC: one per phase) only when the gang has more
	// than one worker.
	StealSyncCost = time.Microsecond

	MinorGCThreads = 16 // parallel scavenge threads (paper: 16)
	MajorGCThreads = 1  // old generation threads (paper: 1)
)
