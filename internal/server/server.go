package server

import (
	"errors"
	"fmt"
	"time"

	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/recovery"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/vm"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

// Per-operation mutator CPU costs. These price the request handler
// itself; heap and device costs (H2 page faults, GC pauses, brownouts)
// are charged by the layers underneath, which is exactly what makes tail
// latency interesting.
const (
	baseCost   = 300 * time.Nanosecond // request parse + dispatch
	wordCost   = 2 * time.Nanosecond   // per value word touched
	writeCost  = 120 * time.Nanosecond // index update on the write path
	churnCost  = 150 * time.Nanosecond // session teardown + rebuild
	rejectCost = 40 * time.Nanosecond  // shed: admission check + error reply
)

// sessionSlots bounds live session state: clients map onto this many
// slots, so the session table's footprint is stable while churn still
// allocates at the configured rate.
const sessionSlots = 4096

// scratchWords sizes the per-request temporary allocation (decode buffer,
// response scaffolding) — pure young-generation garbage.
const scratchWords = 16

// Request ops.
const (
	opRead = iota
	opScan
	opWrite
)

// Window is one throughput-measurement segment of the serve phase (the
// run is cut into eight equal spans of offered primaries). A fault or
// breaker trip shows up as a low-served window; re-admission shows up as
// the tail windows climbing back — the "throughput recovers" signal the
// chaos schedule asserts on.
type Window struct {
	Served  int64
	Shed    int64
	Elapsed time.Duration
}

// RPS returns the window's served throughput in requests per simulated
// second.
func (w Window) RPS() float64 {
	if w.Elapsed <= 0 {
		return 0
	}
	return float64(w.Served) / w.Elapsed.Seconds()
}

// Stats is one serve run's report card.
type Stats struct {
	Cfg Config

	Offered int64 // primary arrivals
	Served  int64 // completed replies (primaries + retries)
	Shed    int64 // rejected by admission control
	Retries int64 // retry attempts scheduled by degraded replies

	Degraded     int64 // replies served degraded (salvage, breaker open, tombstone)
	FaultReplies int64 // replies that surfaced a latched FaultError
	Tombstones   int64 // reads that hit a salvage tombstone and were repaired

	SLOViolations   int64 // served past the deadline
	PauseViolations int64 // SLO violations overlapping a GC pause
	GCPauses        int64 // serve-phase collections
	PauseTime       time.Duration

	P50, P99, P999, MaxLatency time.Duration

	WarmupTime    time.Duration // store build + pre-serve full GCs
	Elapsed       time.Duration // serve-phase simulated time
	ThroughputRPS float64       // Served / Elapsed
	Windows       []Window
}

// String renders the one-line summary used by reports and tests.
func (s *Stats) String() string {
	return fmt.Sprintf("offered=%d served=%d shed=%d retries=%d degraded=%d slo-viol=%d pause-viol=%d p50=%v p99=%v p999=%v rps=%.0f",
		s.Offered, s.Served, s.Shed, s.Retries, s.Degraded,
		s.SLOViolations, s.PauseViolations, s.P50, s.P99, s.P999, s.ThroughputRPS)
}

// pauseSpan is one GC pause in simulated time.
type pauseSpan struct {
	start, end time.Duration
}

// PauseLatencyCollector is the serve plane's gc.Hooks layer: it snapshots
// the clock around every collection and owns the latency histogram, so a
// request's recorded latency can be attributed to the pause it straddled.
// Observation only — it never mutates the heap and charges no time.
type PauseLatencyCollector struct {
	gc.BaseHook
	clock *simclock.Clock

	Hist  Hist
	Count int64
	Total time.Duration

	depth  int
	start  time.Duration
	spans  []pauseSpan
	cursor int
}

// BeforeGC opens a pause span (nested collections extend the outermost).
func (p *PauseLatencyCollector) BeforeGC(gc.Phase) {
	if p.depth == 0 {
		p.start = p.clock.Now()
	}
	p.depth++
}

// AfterGC closes the span and records it.
func (p *PauseLatencyCollector) AfterGC(gc.Phase) {
	if p.depth > 0 {
		p.depth--
	}
	if p.depth != 0 {
		return
	}
	end := p.clock.Now()
	if end > p.start {
		p.spans = append(p.spans, pauseSpan{p.start, end})
		p.Total += end - p.start
	}
	p.Count++
}

// Observe records one served request's latency and reports whether a GC
// pause overlapped its [arrival, completion) span. Requests are observed
// in arrival order, so the span cursor only moves forward.
func (p *PauseLatencyCollector) Observe(arrival, completion time.Duration) bool {
	p.Hist.Record(completion - arrival)
	for p.cursor < len(p.spans) && p.spans[p.cursor].end <= arrival {
		p.cursor++
	}
	for i := p.cursor; i < len(p.spans); i++ {
		if p.spans[i].start >= completion {
			return false
		}
		if p.spans[i].end > arrival {
			return true
		}
	}
	return false
}

// request is one unit of admission: a primary arrival or a scheduled
// retry. seq breaks retry-heap ties so ordering is total.
type request struct {
	at      time.Duration
	seq     int64
	key     int
	op      int
	attempt int
	client  uint64
}

// retryHeap is a min-heap on (at, seq).
type retryHeap []request

func (h retryHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *retryHeap) push(r request) {
	*h = append(*h, r)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *retryHeap) pop() request {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && (*h).less(l, min) {
			min = l
		}
		if r < n && (*h).less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		(*h)[i], (*h)[min] = (*h)[min], (*h)[i]
		i = min
	}
	return top
}

// ready counts queued retries whose scheduled time has passed.
func (h retryHeap) ready(now time.Duration) int64 {
	var n int64
	for _, r := range h {
		if r.at <= now {
			n++
		}
	}
	return n
}

// engine is one serve run's state.
type engine struct {
	cfg   Config
	sess  *rt.Session
	rtm   rt.Runtime
	clock *simclock.Clock
	srv   *workloads.Rand

	valCls     *vm.Class
	sessCls    *vm.Class
	scratchCls *vm.Class
	shards     []*vm.Handle
	sessions   []*vm.Handle

	collector *PauseLatencyCollector
	st        *Stats
	readBuf   [8]uint64 // readValue's words; touchWords caps them at 8
}

// outcome classifies one reply.
type outcome struct {
	degraded  bool
	retryable bool
	fatal     error
}

// Run serves cfg's request stream on the session's runtime and returns
// the stats. The session should be freshly built: Run installs its own
// pause collector on the hook plane and owns the store it allocates. A
// non-nil error is fatal (OOM, or a fault latched during warmup) — the
// stats returned alongside cover what was served before the abort.
func Run(sess *rt.Session, cfg Config) (*Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ia, err := cfg.Interarrival()
	if err != nil {
		return nil, err
	}
	e := &engine{
		cfg:   cfg,
		sess:  sess,
		rtm:   sess.Runtime,
		clock: sess.Clock,
		srv:   workloads.NewRand(cfg.Seed ^ 0x9E3779B97F4A7C15),
		st:    &Stats{Cfg: cfg},
	}
	warmStart := e.clock.Now()
	if err := e.warmup(); err != nil {
		return e.st, err
	}
	e.st.WarmupTime = e.clock.Now() - warmStart

	// The pause collector registers after warmup, so the histogram and
	// pause spans cover the serve phase only.
	e.collector = &PauseLatencyCollector{clock: e.clock}
	e.rtm.Hooks().Register(e.collector)
	defer e.rtm.Hooks().Remove(e.collector)

	err = e.serveLoop(ia)
	e.finalize()
	return e.st, err
}

// class returns the named class, registering it on first use (shared
// class tables across sessions stay valid).
func class(t *vm.ClassTable, name string, reg func() *vm.Class) *vm.Class {
	if c := t.ByName(name); c != nil {
		return c
	}
	return reg()
}

// warmup builds the KV store — shard directories of value arrays — and
// advises the cold shards to H2 (no-op on runtimes without one), then
// runs two full collections so the store reaches its steady-state
// placement before the first request arrives.
func (e *engine) warmup() error {
	t := e.rtm.Classes()
	shardCls := class(t, "server.Shard", func() *vm.Class { return t.MustRefArray("server.Shard") })
	e.valCls = class(t, "server.Value", func() *vm.Class { return t.MustPrimArray("server.Value") })
	e.sessCls = class(t, "server.Session", func() *vm.Class { return t.MustFixed("server.Session", 1, 4) })
	e.scratchCls = class(t, "server.Scratch", func() *vm.Class { return t.MustPrimArray("server.Scratch") })
	e.sessions = make([]*vm.Handle, sessionSlots)

	nShards := e.cfg.Shards()
	e.shards = make([]*vm.Handle, nShards)
	for s := 0; s < nShards; s++ {
		a, err := e.rtm.AllocColdRefArray(shardCls, keysPerShard)
		if err != nil {
			return fmt.Errorf("server: warmup shard %d: %w", s, err)
		}
		e.shards[s] = e.rtm.NewHandle(a)
	}
	for k := 0; k < e.cfg.Keys; k++ {
		if err := e.writeValue(k); err != nil {
			return fmt.Errorf("server: warmup key %d: %w", k, err)
		}
	}

	// The Zipf head lands on the low shards; keep those hot in H1 and
	// advise the tail to H2 (TagRoot/MoveHint, the Fig 4 idiom).
	hot := int(e.cfg.HotFrac * float64(nShards))
	for s := hot; s < nShards; s++ {
		label := uint64(0x53560000) + uint64(s)
		e.rtm.TagRoot(e.shards[s], label)
		e.rtm.MoveHint(label)
	}
	for i := 0; i < 2; i++ {
		if err := e.rtm.FullGC(); err != nil {
			return fmt.Errorf("server: warmup GC: %w", err)
		}
	}
	return nil
}

// keySig is the value fingerprint written to and validated on every key.
func keySig(key int) uint64 { return uint64(key)*0x9E3779B97F4A7C15 + 1 }

// touchWords bounds per-op payload traffic: a handler touches the value's
// header words, not the whole payload.
func (e *engine) touchWords() int {
	w := e.cfg.ValueWords
	if w > 8 {
		w = 8
	}
	return w
}

// writeValue allocates a fresh value for key and installs it in its
// shard slot, replacing (and garbaging) any previous version.
func (e *engine) writeValue(key int) error {
	a, err := e.rtm.AllocColdPrimArray(e.valCls, e.cfg.ValueWords)
	if err != nil {
		return err
	}
	sig := keySig(key)
	for i := 0; i < e.touchWords(); i++ {
		e.rtm.WritePrim(a, i, sig+uint64(i))
	}
	e.rtm.WriteRef(e.shards[key/keysPerShard].Addr(), key%keysPerShard, a)
	e.clock.Charge(simclock.Other, writeCost+time.Duration(e.touchWords())*wordCost)
	return nil
}

// readValue serves one key. A null slot is a salvage tombstone (the
// device lost the object image and recovery nulled the holder instead of
// returning a wrong answer): the read degrades to a miss and the value is
// re-created through the write path — the self-healing store.
func (e *engine) readValue(key int, out *outcome) {
	a := e.rtm.ReadRef(e.shards[key/keysPerShard].Addr(), key%keysPerShard)
	if a.IsNull() {
		e.st.Tombstones++
		out.degraded = true
		out.retryable = true
		e.failOp(e.writeValue(key), out)
		return
	}
	sig := keySig(key)
	words := e.readBuf[:e.touchWords()]
	e.rtm.Mem().PrimRun(a, 0, 1, words)
	for i, v := range words {
		if v != sig+uint64(i) {
			panic(fmt.Sprintf("server: key %d word %d: got %#x want %#x", key, i, v, sig+uint64(i)))
		}
	}
	e.clock.Charge(simclock.Other, time.Duration(e.touchWords())*wordCost)
}

// failOp folds an allocation-path error into the outcome: a latched
// FaultError degrades the reply (the store keeps serving reads while the
// device heals or stays H1-only); OOM and anything else is fatal.
func (e *engine) failOp(err error, out *outcome) {
	if err == nil {
		return
	}
	var flt *gc.FaultError
	if errors.As(err, &flt) {
		e.st.FaultReplies++
		out.degraded = true
		out.retryable = true
		return
	}
	out.fatal = err
}

// churn tears down and rebuilds the client's session state.
func (e *engine) churn(client uint64, out *outcome) {
	slot := int(client % sessionSlots)
	if h := e.sessions[slot]; h != nil {
		e.rtm.Release(h)
		e.sessions[slot] = nil
	}
	a, err := e.rtm.Alloc(e.sessCls)
	if err != nil {
		e.failOp(err, out)
		return
	}
	e.rtm.WritePrim(a, 0, client)
	e.rtm.WritePrim(a, 1, uint64(e.clock.Now()))
	e.sessions[slot] = e.rtm.NewHandle(a)
	e.clock.Charge(simclock.Other, churnCost)
}

// serve executes one admitted request and classifies the reply.
func (e *engine) serve(req request) outcome {
	var out outcome
	var rec0 recovery.Stats
	if e.sess.Recovery != nil {
		rec0 = e.sess.Recovery.Stats()
	}
	e.clock.Charge(simclock.Other, baseCost)
	// Every handler invocation allocates short-lived temporaries (request
	// decode, response buffer): the young-generation pressure that makes a
	// service's tail latency a GC story in the first place.
	if a, err := e.rtm.AllocPrimArray(e.scratchCls, scratchWords); err != nil {
		e.failOp(err, &out)
	} else {
		e.rtm.WritePrim(a, 0, uint64(req.key))
	}
	switch req.op {
	case opRead:
		e.readValue(req.key, &out)
	case opScan:
		shard := req.key / keysPerShard
		idx := req.key % keysPerShard
		for j := 0; j < e.cfg.ScanLen && out.fatal == nil; j++ {
			e.readValue(shard*keysPerShard+(idx+j)%keysPerShard, &out)
		}
	case opWrite:
		e.failOp(e.writeValue(req.key), &out)
	}
	if out.fatal == nil && e.srv.Float64() < e.cfg.ChurnProb {
		e.churn(req.client, &out)
	}
	if e.sess.Recovery != nil {
		rec1 := e.sess.Recovery.Stats()
		// A salvage or breaker transition inside this request's span means
		// the reply was produced while the heap was being repaired: served,
		// but degraded, and worth a client retry once the dust settles.
		if rec1.RecoveredFaults != rec0.RecoveredFaults ||
			rec1.RegionsQuarantined != rec0.RegionsQuarantined ||
			rec1.BreakerTrips != rec0.BreakerTrips {
			out.degraded = true
			out.retryable = true
		}
		// H1-only mode (breaker open or probing): degraded service by
		// definition, but not retry-worthy — a retry would land on the same
		// closed device and only amplify load.
		if rec1.State != recovery.Closed {
			out.degraded = true
		}
	}
	return out
}

// serveLoop is the open-loop core: primaries arrive on the interarrival
// grid, retries from the backoff heap interleave in time order, and the
// single simulated server thread processes them serially — idle gaps
// charge to Other, and every queueing delay (GC pauses included) is the
// difference between arrival and service start.
func (e *engine) serveLoop(ia time.Duration) error {
	serveStart := e.clock.Now()
	var (
		rq                 retryHeap
		nextIdx            int
		seq                int64
		winEvery           = (e.cfg.Requests + 7) / 8
		winAt              = serveStart
		winServed, winShed int64
		primaries          int
	)
	primaryAt := func(i int) time.Duration { return serveStart + time.Duration(i+1)*ia }
	arr := workloads.NewRand(e.cfg.Seed)
	keys := workloads.NewZipf(e.cfg.Keys, e.cfg.ZipfS)

	closeWindow := func() {
		e.st.Windows = append(e.st.Windows, Window{
			Served:  e.st.Served - winServed,
			Shed:    e.st.Shed - winShed,
			Elapsed: e.clock.Now() - winAt,
		})
		winServed, winShed, winAt = e.st.Served, e.st.Shed, e.clock.Now()
	}

	for nextIdx < e.cfg.Requests || len(rq) > 0 {
		var req request
		primary := false
		if len(rq) > 0 && (nextIdx >= e.cfg.Requests || rq[0].at <= primaryAt(nextIdx)) {
			req = rq.pop()
		} else {
			primary = true
			u := arr.Float64()
			op := opWrite
			switch {
			case u < e.cfg.ReadFrac:
				op = opRead
			case u < e.cfg.ReadFrac+e.cfg.ScanFrac:
				op = opScan
			}
			req = request{
				at:     primaryAt(nextIdx),
				key:    keys.Draw(arr),
				client: arr.Uint64() % uint64(e.cfg.Clients),
				op:     op,
			}
			nextIdx++
			e.st.Offered++
		}

		now := e.clock.Now()
		if now < req.at {
			e.clock.Charge(simclock.Other, req.at-now)
			now = req.at
		}

		// Admission control: shed when the request has already burned its
		// deadline in the queue (it cannot possibly answer in time) or when
		// the backlog exceeds the queue bound. Shed replies are final —
		// retrying into an overloaded server amplifies the overload.
		wait := now - req.at
		backlog := queuedPrimaries(now, serveStart, ia, nextIdx, e.cfg.Requests) + rq.ready(now)
		if wait >= e.cfg.Deadline || backlog > int64(e.cfg.QueueDepth) {
			e.st.Shed++
			e.clock.Charge(simclock.Other, rejectCost)
		} else {
			out := e.serve(req)
			if out.fatal != nil {
				return out.fatal
			}
			e.st.Served++
			completion := e.clock.Now()
			pauseHit := e.collector.Observe(req.at, completion)
			if completion-req.at > e.cfg.Deadline {
				e.st.SLOViolations++
				if pauseHit {
					e.st.PauseViolations++
				}
			}
			if out.degraded {
				e.st.Degraded++
			}
			if out.retryable && req.attempt < e.cfg.MaxRetries {
				e.st.Retries++
				seq++
				rq.push(request{
					at:      completion + e.cfg.Backoff<<uint(req.attempt),
					seq:     seq,
					key:     req.key,
					op:      req.op,
					attempt: req.attempt + 1,
					client:  req.client,
				})
			}
		}

		if primary {
			primaries++
			if primaries%winEvery == 0 && primaries < e.cfg.Requests {
				closeWindow()
			}
		}
	}
	closeWindow()
	e.st.Elapsed = e.clock.Now() - serveStart
	return nil
}

// queuedPrimaries counts primaries that have arrived by now but not yet
// been dispatched — the open-loop backlog.
func queuedPrimaries(now, serveStart time.Duration, ia time.Duration, nextIdx, total int) int64 {
	if now <= serveStart {
		return 0
	}
	arrived := int64((now - serveStart) / ia)
	if arrived > int64(total) {
		arrived = int64(total)
	}
	q := arrived - int64(nextIdx)
	if q < 0 {
		q = 0
	}
	return q
}

// finalize folds the collector into the stats.
func (e *engine) finalize() {
	e.st.P50 = e.collector.Hist.Percentile(0.50)
	e.st.P99 = e.collector.Hist.Percentile(0.99)
	e.st.P999 = e.collector.Hist.Percentile(0.999)
	e.st.MaxLatency = e.collector.Hist.Max()
	e.st.GCPauses = e.collector.Count
	e.st.PauseTime = e.collector.Total
	if e.st.Elapsed > 0 {
		e.st.ThroughputRPS = float64(e.st.Served) / e.st.Elapsed.Seconds()
	}
}
