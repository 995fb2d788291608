package storage

import "time"

// writebackQueue models a device's asynchronous writeback channel in
// virtual time. Submissions (promotion-buffer flushes, page-cache
// writeback) enqueue a batch whose service starts when the channel goes
// idle and costs its full sequential-write time; nothing is charged to the
// submitter unless the queue is saturated. The charge lands later, when
// the queue drains at a safepoint: whatever service time extends past the
// drain point is the part the mutator failed to overlap, and only that is
// billed. A deep backlog behind a fast mutator costs nothing; a backlog
// hitting an immediate safepoint costs its full service time — exactly the
// overlap behavior the flat asyncOverlap discount approximated with a
// constant.
//
// The queue is virtual-completion-time bookkeeping over the session's
// single-threaded clock: no goroutines, so same-seed runs stay
// byte-identical at every depth.
type writebackQueue struct {
	// depth caps in-flight batches; 0 disables the queue.
	depth int
	// freeAt is the virtual time the writeback channel goes idle.
	freeAt time.Duration
	// done holds the completion times of in-flight batches, ascending;
	// head indexes the oldest so retiring batches never re-slices the
	// front of the backing array.
	done []time.Duration
	head int

	stats WritebackStats
}

// WritebackStats counts writeback-queue activity.
type WritebackStats struct {
	// Batches is the number of submissions accepted by the queue.
	Batches int64
	// Stalls counts submissions that found the queue full and had to wait
	// for the oldest in-flight batch; StallNS is the total wait charged to
	// the submitters.
	Stalls  int64
	StallNS int64
	// Drains counts safepoint drains; DrainNS is the total residual
	// service time they charged (the unhidden part of the async writes).
	Drains  int64
	DrainNS int64
}

// pending returns the number of in-flight batches.
func (q *writebackQueue) pending() int { return len(q.done) - q.head }

// SetWritebackDepth sets the in-flight batch cap of the device's
// asynchronous writeback queue. Depth 0 (the default) disables the queue,
// restoring the flat asyncOverlap discount for WriteAsync; negative values
// are treated as 0. Changing the depth mid-run with batches in flight is
// not supported — callers configure it at session construction.
func (d *Device) SetWritebackDepth(depth int) {
	if depth < 0 {
		depth = 0
	}
	d.wb.depth = depth
}

// WritebackDepth returns the configured in-flight batch cap (0 = queue
// disabled).
func (d *Device) WritebackDepth() int { return d.wb.depth }

// WritebackStats returns a copy of the writeback-queue counters.
func (d *Device) WritebackStats() WritebackStats { return d.wb.stats }

// submitWriteback enqueues one batch of already fault-adjusted service
// cost. When the queue is at its depth cap the submitter blocks (ambient
// charge) until the oldest batch completes, modeling the bounded
// request-queue backpressure of a real device.
func (d *Device) submitWriteback(cost time.Duration) {
	q := &d.wb
	now := d.clock.Now()
	for q.pending() >= q.depth {
		oldest := q.done[q.head]
		q.head++
		if oldest > now {
			wait := oldest - now
			d.clock.ChargeAmbient(wait)
			q.stats.Stalls++
			q.stats.StallNS += int64(wait)
			now = oldest
		}
	}
	if q.head == len(q.done) {
		// Queue empty: recycle the backing array.
		q.done = q.done[:0]
		q.head = 0
	}
	start := now
	if q.freeAt > start {
		start = q.freeAt
	}
	q.freeAt = start + cost
	q.done = append(q.done, q.freeAt)
	q.stats.Batches++
}

// DrainWriteback retires every in-flight writeback batch, charging the
// residual service time — the part not hidden behind virtual time already
// elapsed since submission — to the clock's ambient category. Collectors
// call it at safepoints (GC entry, end of run) so async writes complete
// before a pause begins. It returns the charged wait (0 when the queue is
// empty or fully overlapped), and is a no-op when the queue is disabled.
func (d *Device) DrainWriteback() time.Duration {
	q := &d.wb
	if q.pending() == 0 {
		return 0
	}
	q.done = q.done[:0]
	q.head = 0
	now := d.clock.Now()
	q.stats.Drains++
	if q.freeAt <= now {
		return 0
	}
	wait := q.freeAt - now
	d.clock.ChargeAmbient(wait)
	q.stats.DrainNS += int64(wait)
	return wait
}
