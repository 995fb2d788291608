package gc

import (
	"time"

	"github.com/carv-repro/teraheap-go/internal/simclock"
)

// gang attributes GC work items to simulated workers. Work items arrive in
// the phase's stable traversal order (worklist pops, examined cards, live
// objects, ...) and are dealt round-robin onto N per-worker simclock
// spans; nested costs (a copy triggered while scanning an item) accrue to
// the item's worker. The phase then charges max-over-workers instead of
// the serial sum.
//
// This is cost attribution only: the heap mutation order is identical at
// every gang size, so final heap state, device traffic, and checksums do
// not depend on Workers — only pause accounting does. No goroutines are
// involved, which is what keeps same-seed runs byte-identical across
// processes at every worker count.
type gang struct {
	spans simclock.Spans
	cur   int // worker owning the current work item
	next  int // round-robin cursor
}

// reset prepares the gang for a phase of n workers (n < 1 means one).
func (g *gang) reset(n int) {
	g.spans.Reset(n)
	g.cur = 0
	g.next = 0
}

// beginItem deals the next work item to a worker.
func (g *gang) beginItem() {
	g.cur = g.next
	g.next++
	if g.next == g.spans.Workers() {
		g.next = 0
	}
}

// charge bills d to the current item's worker.
func (g *gang) charge(d time.Duration) { g.spans.Add(g.cur, d) }

// sweepUniform deals n uniform-cost items in one step: each worker
// receives exactly the share per-item dealing would have given it, and
// the cursors advance as if the items had been dealt one by one — so a
// caller can rebind cur to (start+i) mod workers for any item i that
// turns out to need nested charges.
func (g *gang) sweepUniform(n int, per time.Duration) {
	if n <= 0 {
		return
	}
	w := g.spans.Workers()
	base, rem := n/w, n%w
	for i := 0; i < w; i++ {
		cnt := base
		if (i-g.next+w)%w < rem {
			cnt++
		}
		g.spans.Add(i, time.Duration(cnt)*per)
	}
	g.next = (g.next + n) % w
	g.cur = (g.next - 1 + w) % w
}

// beginGangPhase arms per-worker attribution for one barrier-delimited
// phase. Every pause phase is a gang phase; a gang of one (Workers 0 or
// 1) accrues every item on one span, which is the serial charge.
func (c *Collector) beginGangPhase() { c.gang.reset(c.Workers) }

// endGangPhase closes a phase opened by beginGangPhase: the pause charge
// is the longest worker span divided by the phase's thread count, plus
// one barrier's steal/sync overhead when more than one worker has to
// synchronize.
func (c *Collector) endGangPhase(cat simclock.Category, threads int) {
	c.clock.Charge(cat, c.gang.spans.Max()/time.Duration(threads))
	if c.Workers > 1 {
		c.clock.Charge(cat, simclock.StealSyncCost)
	}
}
