// Package giraph simulates the Apache Giraph BSP engine the paper's second
// half evaluates (§5, Fig 5): vertex-centric supersteps with a partition
// store, incoming/current message stores, an out-of-core (OOC) scheduler
// that offloads partitions under memory pressure (Giraph-OOC), and the
// TeraHeap mode that tags out-edge maps at the input superstep and message
// stores per superstep.
package giraph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/serde"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

// Mode selects the Giraph memory configuration.
type Mode int

// Giraph configurations (Table 2).
const (
	// ModeOOC is Giraph-OOC: heap in DRAM, partitions offloaded to the
	// device under pressure via the out-of-core scheduler.
	ModeOOC Mode = iota
	// ModeTH is Giraph over TeraHeap.
	ModeTH
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeOOC {
		return "giraph-ooc"
	}
	return "teraheap"
}

// Conf configures an engine.
type Conf struct {
	RT      rt.Runtime
	Mode    Mode
	Threads int

	// OOCDev backs offloaded partition data in ModeOOC.
	OOCDev *storage.Device
	// OOCCacheBytes is the page-cache share for offloaded data.
	OOCCacheBytes int64
	// OOCHighWater is the H1 usage fraction that triggers offloading.
	OOCHighWater float64
}

// computePerElem is the mutator CPU cost per element visited.
const computePerElem = 60 * time.Nanosecond

// Engine runs BSP computations over a partitioned graph.
type Engine struct {
	Conf  Conf
	RT    rt.Runtime
	Ser   *serde.Serializer
	Graph *workloads.Graph
	Parts int

	// per is the vertex count of every partition but the last, and
	// perRecip is ceil(2^63/per): target divides by per as the high word
	// of 2t·perRecip. Writing perRecip·per = 2^63+r with 0 <= r < per,
	// the product's high word is t/per + t·r/(per·2^63), whose excess
	// stays below 1/per because t·r < 2^31·2^31; so the floor is exact
	// for every t < 2^31, which NewEngine guarantees. Scaling by 2^63
	// rather than 2^64 keeps per == 1 representable.
	per      int
	perRecip uint64

	clsPart *vm.Class // ref array
	clsData *vm.Class // prim array

	partitions []*partition
	ooc        *oocScheduler

	comb Combiner // non-nil when the program has a message combiner
	// barriers counts the synchronization barriers passed; its parity
	// picks each superstep's buffer generation (see partition.gens).
	barriers int
	// Reused host buffers, so the message plane allocates nothing per
	// message. scratch holds heap words on their way in or out: readPrims'
	// run, gatherMessages' chunks, or one packed write run; each use ends
	// before the next begins. in is gatherMessages' result.
	scratch []uint64
	in      msgIndex
	// Label space: input-superstep edges use label 1; the message store of
	// superstep s uses label msgLabelBase+s.
	Stats EngineStats
}

// EngineStats counts engine activity.
type EngineStats struct {
	Supersteps   int
	MessagesSent int64
	ActiveAtEnd  int
	OOCOffloads  int64
	OOCReloads   int64
}

const (
	edgesLabel   uint64 = 1
	msgLabelBase uint64 = 16
)

// partition holds one graph partition's stores.
type partition struct {
	id     int
	lo, hi int

	edges  *store // out-edge arrays; immutable after input superstep
	values *vm.Handle
	inMsgs *store // incoming messages (immutable)
	cur    *store // current messages (mutable this superstep)

	// Go-side mirrors for rebuild and verification.
	vals   []float64
	active []bool
	// gens holds two generations of message buffers; gen points at this
	// superstep's, gens[barriers%2]. The store a generation mirrors stays
	// readable (an OOC reload rebuilds it) until the next barrier releases
	// it, so a generation is reused only two barriers later.
	gens [2]msgGen
	gen  *msgGen
}

// msgGen is one generation of a partition's message buffers.
type msgGen struct {
	// out holds the packed messages this partition sends, per target
	// partition (uncombined programs).
	out [][]uint64
	// data mirrors the chunks materialized into cur (uncombined
	// programs): per source partition, that partition's out buffer for
	// this one.
	data [][]uint64
	// dense mirrors the dense combined store (programs with a Combiner):
	// one combined value per local vertex.
	dense []float64
}

// msgIndex holds one partition's incoming messages in CSR form: local
// vertex i's messages are vals[off[i]:off[i+1]], in arrival order.
type msgIndex struct {
	off  []int
	vals []float64
}

// of returns local vertex i's messages, capped so that an append cannot
// reach the next vertex's.
func (m *msgIndex) of(i int) []float64 { return m.vals[m.off[i]:m.off[i+1]:m.off[i+1]] }

// packMsg packs a message into one heap word: local index in the high 32
// bits, the value as float32 bits in the low 32 — Giraph's compact
// serialized message representation (§5: messages are byte arrays).
func packMsg(local int32, val float64) uint64 {
	return uint64(uint32(local))<<32 | uint64(math.Float32bits(float32(val)))
}

func unpackMsg(w uint64) (int32, float64) {
	return int32(uint32(w >> 32)), float64(math.Float32frombits(uint32(w)))
}

// NewEngine partitions the graph and loads it (the input superstep):
// out-edge arrays are materialized on the heap and, in TeraHeap mode,
// tagged with the input-superstep label and move-advised at the end of
// loading (Fig 5 steps 1-2).
func NewEngine(conf Conf, g *workloads.Graph, parts int) (*Engine, error) {
	if conf.Threads <= 0 {
		conf.Threads = 8
	}
	if conf.OOCHighWater == 0 {
		// Relative to the whole heap; the old generation is 2/3 of it, so
		// offloading must start well before the heap looks full.
		conf.OOCHighWater = 0.50
	}
	if int64(g.N) >= 1<<31 {
		// Messages pack a target's partition-local index in 32 bits, and
		// target's reciprocal is exact below 2^31.
		return nil, fmt.Errorf("giraph: graph of %d vertices exceeds 2^31", g.N)
	}
	classes := conf.RT.Classes()
	cls := func(name string, mk func() *vm.Class) *vm.Class {
		if c := classes.ByName(name); c != nil {
			return c
		}
		return mk()
	}
	e := &Engine{
		Conf:  conf,
		RT:    conf.RT,
		Graph: g,
		Parts: parts,
		clsPart: cls("giraph.Partition", func() *vm.Class {
			return classes.MustRefArray("giraph.Partition")
		}),
		clsData: cls("giraph.Data", func() *vm.Class {
			return classes.MustPrimArray("giraph.Data")
		}),
	}
	e.Ser = serde.New(conf.RT, serde.Kryo)
	e.Ser.Parallelism = conf.Threads
	if conf.Mode == ModeOOC {
		dev := conf.OOCDev
		if dev == nil {
			dev = storage.NewDevice(storage.NVMeSSD, conf.RT.Clock())
		}
		e.ooc = newOOCScheduler(e, dev, conf.OOCCacheBytes)
	}

	per := (g.N + parts - 1) / parts
	e.setPartitionSize(max(per, 1)) // an empty graph has no targets
	for p := 0; p < parts; p++ {
		lo := p * per
		hi := lo + per
		if hi > g.N {
			hi = g.N
		}
		pt := &partition{id: p, lo: lo, hi: hi}
		pt.vals = make([]float64, hi-lo)
		pt.active = make([]bool, hi-lo)
		e.partitions = append(e.partitions, pt)
	}

	// Input superstep: load edges and values. Fig 5 step 1: the out-edges
	// map is tagged as it is created — while still being filled — so
	// premature movement (no hint, high pressure) hits mutable data.
	for _, pt := range e.partitions {
		if err := e.buildEdges(pt); err != nil {
			return nil, err
		}
		va, err := e.RT.AllocPrimArray(e.clsData, pt.hi-pt.lo)
		if err != nil {
			return nil, err
		}
		pt.values = e.RT.NewHandle(va)
		if pt.inMsgs, err = e.newEmptyStore(); err != nil {
			return nil, err
		}
		if pt.cur, err = e.newEmptyStore(); err != nil {
			return nil, err
		}
		if e.ooc != nil {
			if err := e.ooc.maybeOffload(); err != nil {
				return nil, err
			}
		}
	}
	if e.Conf.Mode == ModeTH {
		// Fig 5 step 2: at the end of the input superstep, advise moving
		// the (now immutable) edges to H2.
		e.RT.MoveHint(edgesLabel)
	}
	return e, nil
}

// buildEdges materializes partition pt's out-edge arrays, tagging the
// root at creation in TeraHeap mode (Fig 5 step 1).
func (e *Engine) buildEdges(pt *partition) error {
	st := &store{}
	st.rebuild = func() error { return e.materializeEdges(pt, st) }
	pt.edges = st
	return st.rebuild()
}

// materializeEdges (re)builds the out-edge arrays of pt into st. Each
// edge entry is two words — target vertex and edge weight — matching the
// Graphalytics datagen graphs, whose edges carry values.
func (e *Engine) materializeEdges(pt *partition, st *store) error {
	v := pt.hi - pt.lo
	root, err := e.RT.AllocRefArray(e.clsPart, v)
	if err != nil {
		return err
	}
	st.h = e.RT.NewHandle(root)
	st.objects = 1
	st.words = int64(vm.HeaderWords + v)
	if e.Conf.Mode == ModeTH {
		e.RT.TagRoot(st.h, edgesLabel)
	}
	for i := 0; i < v; i++ {
		edges := e.Graph.Adj[pt.lo+i]
		ea, err := e.RT.AllocPrimArray(e.clsData, 2*len(edges))
		if err != nil {
			e.RT.Release(st.h)
			st.h = nil
			return err
		}
		e.RT.WriteRef(st.h.Addr(), i, ea)
		words := e.scratch[:0]
		for _, t := range edges {
			words = append(words, uint64(t), f2b(edgeWeight(pt.lo+i, int(t))))
		}
		e.scratch = words
		e.RT.Mem().SetPrimRun(ea, 0, words)
		st.objects++
		st.words += int64(vm.HeaderWords + 2*len(edges))
	}
	e.chargeElements(st.words / 2)
	return nil
}

// edgeWeight derives a deterministic weight for edge (u,v).
func edgeWeight(u, v int) float64 {
	return 1.0 + float64((u+v)%7)/7.0
}

// materializeMsgStore (re)builds a message store from mirrored chunk data.
func (e *Engine) materializeMsgStore(data [][]uint64, st *store) error {
	root, err := e.RT.AllocRefArray(e.clsPart, e.Parts)
	if err != nil {
		return err
	}
	st.h = e.RT.NewHandle(root)
	st.objects = 1
	st.words = int64(vm.HeaderWords + e.Parts)
	for sp, words := range data {
		if len(words) == 0 {
			continue
		}
		chunk, err := e.RT.AllocPrimArray(e.clsData, len(words))
		if err != nil {
			e.RT.Release(st.h)
			st.h = nil
			return err
		}
		e.RT.Mem().SetPrimRun(chunk, 0, words)
		e.RT.WriteRef(st.h.Addr(), sp, chunk)
		st.objects++
		st.words += int64(vm.HeaderWords + len(words))
	}
	return nil
}

// newEmptyStore creates a message-store root (one slot per source
// partition).
func (e *Engine) newEmptyStore() (*store, error) {
	st := &store{}
	st.rebuild = func() error { return e.materializeMsgStore(nil, st) }
	return st, st.rebuild()
}

// newDenseStore creates a dense combined message store for pt: one slot
// per local vertex, initialized to the combiner identity. The dense
// mirror of pt's current generation is reset alongside.
func (e *Engine) newDenseStore(pt *partition) (*store, error) {
	st := &store{}
	n := pt.hi - pt.lo
	if err := e.materializeDenseStoreIdentity(n, st); err != nil {
		return nil, err
	}
	if pt.gen.dense == nil {
		pt.gen.dense = make([]float64, n)
	}
	id := e.comb.CombineIdentity()
	for i := range pt.gen.dense {
		pt.gen.dense[i] = id
	}
	// Non-zero identities (e.g. +Inf for min-combiners) must be written
	// out; a zero identity is covered by allocation zeroing.
	if id != 0 {
		words := e.scratch[:0]
		for range n {
			words = append(words, f2b(id))
		}
		e.scratch = words
		e.RT.Mem().SetPrimRun(st.h.Addr(), 0, words)
	}
	return st, nil
}

// materializeDenseStoreIdentity allocates a dense store without contents.
func (e *Engine) materializeDenseStoreIdentity(n int, st *store) error {
	arr, err := e.RT.AllocPrimArray(e.clsData, n)
	if err != nil {
		return err
	}
	st.dense = true
	st.h = e.RT.NewHandle(arr)
	st.objects = 1
	st.words = int64(vm.HeaderWords + n)
	return nil
}

// materializeDenseStore (re)builds a dense store from its mirror.
func (e *Engine) materializeDenseStore(data []float64, st *store) error {
	if err := e.materializeDenseStoreIdentity(len(data), st); err != nil {
		return err
	}
	for i, v := range data {
		if v != 0 {
			e.RT.WritePrim(st.h.Addr(), i, f2b(v))
		}
	}
	return nil
}

func (e *Engine) chargeElements(n int64) {
	e.RT.Clock().Charge(simclock.Other,
		time.Duration(n)*computePerElem/time.Duration(e.Conf.Threads))
}

// Run executes prog until convergence or its superstep cap, returning the
// final vertex values.
func (e *Engine) Run(prog Program) ([]float64, error) {
	e.comb, _ = prog.(Combiner)
	// Initialize values.
	for _, pt := range e.partitions {
		for i := range pt.vals {
			v, active := prog.Init(pt.lo+i, len(e.Graph.Adj[pt.lo+i]), e.Graph.N)
			pt.vals[i] = v
			pt.active[i] = active
			e.RT.WritePrim(pt.values.Addr(), i, f2b(v))
		}
	}
	maxS := prog.MaxSupersteps()
	for s := 0; s < maxS; s++ {
		sent, err := e.runSuperstep(prog, s)
		if err != nil {
			return nil, err
		}
		e.Stats.Supersteps++
		if sent == 0 && !e.anyActive() {
			break
		}
	}
	out := make([]float64, e.Graph.N)
	for _, pt := range e.partitions {
		copy(out[pt.lo:pt.hi], pt.vals)
	}
	e.Stats.ActiveAtEnd = e.countActive()
	return out, nil
}

func (e *Engine) anyActive() bool { return e.countActive() > 0 }

func (e *Engine) countActive() int {
	n := 0
	for _, pt := range e.partitions {
		for _, a := range pt.active {
			if a {
				n++
			}
		}
	}
	return n
}

// runSuperstep runs one BSP superstep, returning messages sent.
func (e *Engine) runSuperstep(prog Program, s int) (int64, error) {
	label := msgLabelBase + uint64(s)
	// Fig 5 step 4: at the beginning of the superstep, advise moving the
	// previous superstep's (now immutable) messages to H2.
	if e.Conf.Mode == ModeTH && s > 0 {
		e.RT.MoveHint(msgLabelBase + uint64(s-1))
	}

	// Fresh current stores, tagged with this superstep's label as they
	// are created (Fig 5 step 3), and this superstep's buffer generation.
	for _, pt := range e.partitions {
		pt.gen = &pt.gens[e.barriers%2]
		var err error
		if e.comb != nil {
			pt.cur, err = e.newDenseStore(pt)
		} else {
			pt.cur, err = e.newEmptyStore()
			if pt.gen.data == nil {
				pt.gen.data = make([][]uint64, e.Parts)
				pt.gen.out = make([][]uint64, e.Parts)
			}
			clear(pt.gen.data)
		}
		if err != nil {
			return 0, err
		}
		if e.Conf.Mode == ModeTH {
			e.RT.TagRoot(pt.cur.h, label)
		}
	}

	var sent int64
	threads := e.Conf.Threads
	for base := 0; base < e.Parts; base += threads {
		hi := base + threads
		if hi > e.Parts {
			hi = e.Parts
		}
		for p := base; p < hi; p++ {
			n, err := e.computePartition(prog, s, e.partitions[p])
			if err != nil {
				return 0, err
			}
			sent += n
			if e.ooc != nil {
				if err := e.ooc.maybeOffload(); err != nil {
					return 0, err
				}
			}
		}
	}
	e.Stats.MessagesSent += sent

	// Synchronization barrier: current stores become the next incoming
	// stores (immutable from here on) and gain a rebuild closure from the
	// mirrored data so the OOC scheduler can round-trip them. The mirror
	// is this generation's buffers, which stay untouched until the next
	// barrier releases the store.
	e.barriers++
	for _, pt := range e.partitions {
		e.releaseStore(pt.inMsgs)
		pt.inMsgs = pt.cur
		pt.cur = nil
		st := pt.inMsgs
		if e.comb != nil {
			data := pt.gen.dense
			st.rebuild = func() error { return e.materializeDenseStore(data, st) }
		} else {
			data := pt.gen.data
			st.rebuild = func() error { return e.materializeMsgStore(data, st) }
		}
	}
	return sent, nil
}

// f2b and b2f convert message values to heap words.
func f2b(f float64) uint64 { return math.Float64bits(f) }
func b2f(b uint64) float64 { return math.Float64frombits(b) }

// computePartition runs prog over one partition's vertices.
func (e *Engine) computePartition(prog Program, s int, pt *partition) (int64, error) {
	if err := e.ensureResident(pt.edges); err != nil {
		return 0, err
	}
	if err := e.ensureResident(pt.inMsgs); err != nil {
		return 0, err
	}
	if e.ooc != nil {
		e.ooc.touch(pt.edges)
		e.ooc.touch(pt.inMsgs)
	}

	// Gather incoming messages for this partition (reads charge device
	// cost if the store lives in H2).
	in := e.gatherMessages(pt)

	// Outgoing buffers per target partition (uncombined programs only).
	out := pt.gen.out
	for tp := range out {
		out[tp] = out[tp][:0]
	}
	_, weighted := prog.(EdgeWeightUser)
	var sent int64
	var elems int64

	edgesRoot := pt.edges.h.Addr()
	for i := 0; i < pt.hi-pt.lo; i++ {
		v := pt.lo + i
		msgs := in.of(i)
		if !pt.active[i] && len(msgs) == 0 {
			continue
		}
		ea := e.RT.ReadRef(edgesRoot, i)
		deg := e.RT.Mem().NumPrims(ea) / 2
		nv, send, msgVal := prog.Compute(s, v, pt.vals[i], msgs, deg)
		if nv != pt.vals[i] {
			pt.vals[i] = nv
			// Vertex values are mutable and unmarked: they stay in H1.
			e.RT.WritePrim(pt.values.Addr(), i, f2b(nv))
		}
		pt.active[i] = send
		if send && deg > 0 && e.comb != nil {
			for j := 0; j < deg; j++ {
				tp, l := e.target(int(e.RT.ReadPrim(ea, 2*j)))
				msgVal := msgVal
				if weighted {
					msgVal += b2f(e.RT.ReadPrim(ea, 2*j+1))
				}
				// Combine straight into the target's dense store —
				// Giraph's combiner path. Updates to a store that
				// already moved to H2 pay the device read-modify-write
				// the paper describes (§7.2); the writes interleave with
				// the edge reads, so those stay per word.
				tgt := e.partitions[tp]
				acc := tgt.gen.dense[l]
				if merged := e.comb.Combine(acc, msgVal); merged != acc {
					tgt.gen.dense[l] = merged
					e.RT.WritePrim(tgt.cur.h.Addr(), l, f2b(merged))
				}
			}
			sent += int64(deg)
		} else if send && deg > 0 {
			e.scatter(out, ea, deg, weighted, msgVal)
			sent += int64(deg)
		}
		elems += int64(deg) + 1
	}
	e.chargeElements(elems)
	if e.comb != nil {
		return sent, nil
	}

	// Materialize outgoing chunks into the target partitions' current
	// message stores: one packed word per message, one chunk array per
	// (source, target) pair, written through the write barrier (updates
	// to an H2-resident store pay the read-modify-write the paper
	// describes, §7.2).
	for tp, words := range out {
		if len(words) == 0 {
			continue
		}
		tgt := e.partitions[tp]
		chunk, err := e.RT.AllocPrimArray(e.clsData, len(words))
		if err != nil {
			return 0, err
		}
		e.RT.Mem().SetPrimRun(chunk, 0, words)
		e.RT.WriteRef(tgt.cur.h.Addr(), pt.id, chunk)
		tgt.cur.objects++
		tgt.cur.words += int64(vm.HeaderWords + len(words))
		tgt.gen.data[pt.id] = words
	}
	return sent, nil
}

// setPartitionSize sets per and its reciprocal perRecip.
func (e *Engine) setPartitionSize(per int) {
	e.per, e.perRecip = per, (1<<63+uint64(per)-1)/uint64(per)
}

// target returns the partition of global vertex t and t's index in it.
func (e *Engine) target(t int) (tp, local int) {
	hi, _ := bits.Mul64(uint64(t)<<1, e.perRecip)
	tp = int(hi)
	return tp, t - tp*e.per
}

// scatter appends one packed message per out-edge of the vertex whose
// edge array ea holds deg (target, weight) pairs to out, per target
// partition: msgVal, plus the edge's weight for an EdgeWeightUser. No
// heap access falls between the edge reads, so the edges are one run of
// word pairs, or of every other word when the weights are not read.
func (e *Engine) scatter(out [][]uint64, ea vm.Addr, deg int, weighted bool, msgVal float64) {
	stride, words := 2, deg
	if weighted {
		stride, words = 1, 2*deg
	}
	run := e.readPrims(ea, stride, words)
	for j := 0; j < deg; j++ {
		tw, val := run[j], msgVal
		if weighted {
			tw, val = run[2*j], msgVal+b2f(run[2*j+1])
		}
		tp, l := e.target(int(tw))
		out[tp] = append(out[tp], packMsg(int32(l), val))
	}
}

// gatherMessages reads partition pt's incoming store into e.in, which the
// next call overwrites. Each chunk is read as one run into scratch, in
// source-partition order; the messages are then counted per vertex and
// laid out in that order, so a vertex sees them by source partition,
// source vertex and edge.
func (e *Engine) gatherMessages(pt *partition) *msgIndex {
	n := pt.hi - pt.lo
	in := &e.in
	in.off = slices.Grow(in.off[:0], n+1)[:n+1]
	clear(in.off)
	in.vals = in.vals[:0]
	var reads int64
	if pt.inMsgs.dense {
		id := e.comb.CombineIdentity()
		addr := pt.inMsgs.h.Addr()
		np := e.RT.Mem().NumPrims(addr)
		for i, w := range e.readPrims(addr, 1, min(np, n)) {
			in.off[i] = len(in.vals)
			if v := b2f(w); v != id {
				in.vals = append(in.vals, v)
			}
		}
		for i := min(np, n); i <= n; i++ {
			in.off[i] = len(in.vals)
		}
		reads = int64(np)
	} else {
		root := pt.inMsgs.h.Addr()
		words := e.scratch[:0]
		for sp := 0; sp < e.Parts; sp++ {
			chunk := e.RT.ReadRef(root, sp)
			if chunk.IsNull() {
				continue
			}
			k := e.RT.Mem().NumPrims(chunk)
			words = slices.Grow(words, k)
			e.RT.Mem().PrimRun(chunk, 0, 1, words[len(words):len(words)+k])
			words = words[:len(words)+k]
			reads += int64(k)
		}
		e.scratch = words
		// Count per vertex into off[local+1] and prefix-sum, so off[i] is
		// vertex i's first slot; filling advances off[i] to its end, and
		// the shift restores the starts.
		for _, w := range words {
			if l, _ := unpackMsg(w); l >= 0 && int(l) < n {
				in.off[l+1]++
			}
		}
		for i := 0; i < n; i++ {
			in.off[i+1] += in.off[i]
		}
		in.vals = slices.Grow(in.vals, in.off[n])[:in.off[n]]
		for _, w := range words {
			if l, val := unpackMsg(w); l >= 0 && int(l) < n {
				in.vals[in.off[l]] = val
				in.off[l]++
			}
		}
		copy(in.off[1:], in.off[:n])
		in.off[0] = 0
	}
	e.chargeElements(reads)
	return in
}

// readPrims reads n primitive words of the object at a, from word 0 in
// steps of stride, as one run, into scratch.
func (e *Engine) readPrims(a vm.Addr, stride, n int) []uint64 {
	if cap(e.scratch) < n {
		e.scratch = make([]uint64, n)
	}
	buf := e.scratch[:n]
	e.RT.Mem().PrimRun(a, 0, stride, buf)
	return buf
}

// ensureResident reloads an offloaded store (OOC mode).
func (e *Engine) ensureResident(st *store) error {
	if st == nil || !st.offloaded {
		return nil
	}
	if e.ooc == nil {
		return fmt.Errorf("giraph: store offloaded without OOC scheduler")
	}
	return e.ooc.reload(st)
}

// releaseStore drops a store's heap root.
func (e *Engine) releaseStore(st *store) {
	if st == nil {
		return
	}
	if st.h != nil && !st.offloaded {
		e.RT.Release(st.h)
	}
	if e.ooc != nil {
		e.ooc.forget(st)
	}
}

// Breakdown snapshots the execution-time breakdown.
func (e *Engine) Breakdown() simclock.Breakdown { return e.RT.Breakdown() }
