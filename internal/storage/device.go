package storage

import (
	"time"

	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/simclock"
)

// Stats counts device traffic. The paper reports read/write operation and
// byte counts when comparing TeraHeap against Spark-MO and Panthera (§7.5).
type Stats struct {
	ReadOps      int64
	WriteOps     int64
	BytesRead    int64
	BytesWritten int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.ReadOps += other.ReadOps
	s.WriteOps += other.WriteOps
	s.BytesRead += other.BytesRead
	s.BytesWritten += other.BytesWritten
}

// asyncOverlap is the fraction of write cost that explicit asynchronous
// I/O (TeraHeap's promotion buffers) hides behind computation when the
// writeback queue is off.
const asyncOverlap = 0.6

// Device is a simulated storage or memory device. All accesses charge
// virtual time to the clock's ambient category, so a page fault taken
// during major GC bills Major GC while one taken by a mutator thread
// bills Other — exactly how the paper attributes I/O wait.
type Device struct {
	model CostModel
	clock *simclock.Clock
	stats Stats

	// inj, when non-nil, degrades and fails operations per a fault plan.
	// Every charge is routed through it; a nil injector passes costs
	// through unchanged, so fault-free runs stay byte-identical.
	inj *fault.Injector

	// wb is the asynchronous writeback queue (see writeback.go). Depth 0
	// (the default) disables it, keeping the flat asyncOverlap model.
	wb writebackQueue
}

// NewDevice builds a device of the given kind with its default cost model.
func NewDevice(kind Kind, clock *simclock.Clock) *Device {
	var m CostModel
	switch kind {
	case NVMeSSD:
		m = PM983Model()
	case NVM:
		m = OptaneModel()
	default:
		m = DRAMModel()
	}
	return &Device{model: m, clock: clock}
}

// NewStripedDevice builds a device whose bandwidth scales with the number
// of striped units (e.g. several NVMe SSDs behind software RAID-0), the
// configuration §7.1 suggests for the bandwidth-bound ML workloads.
func NewStripedDevice(kind Kind, stripes int, clock *simclock.Clock) *Device {
	if stripes < 1 {
		stripes = 1
	}
	d := NewDevice(kind, clock)
	d.model.ReadBandwidth *= int64(stripes)
	d.model.WriteBandwidth *= int64(stripes)
	// Requests spread across units; per-unit queues shorten a little.
	d.model.SeqBatch *= stripes
	return d
}

// Model returns the device cost model.
func (d *Device) Model() CostModel { return d.model }

// Stats returns a copy of the traffic counters.
func (d *Device) Stats() Stats { return d.stats }

// Read charges a random read of n bytes.
func (d *Device) Read(n int64) {
	if n <= 0 {
		return
	}
	d.stats.ReadOps++
	d.stats.BytesRead += n
	d.clock.ChargeAmbient(d.inj.DeviceOp(false, d.model.readCost(n)))
}

// Write charges a random write of n bytes.
func (d *Device) Write(n int64) {
	if n <= 0 {
		return
	}
	d.stats.WriteOps++
	d.stats.BytesWritten += n
	d.clock.ChargeAmbient(d.inj.DeviceOp(true, d.model.writeCost(n)))
}

// ReadSeqBatched charges one page of an established sequential stream:
// the operation latency is amortized over the readahead window while the
// bandwidth cost stays per byte.
func (d *Device) ReadSeqBatched(n int64) {
	if n <= 0 {
		return
	}
	d.stats.ReadOps++
	d.stats.BytesRead += n
	batch := d.model.SeqBatch
	if batch < 1 {
		batch = 1
	}
	cost := d.model.ReadLatency/time.Duration(batch) + bwCost(n, d.model.ReadBandwidth)
	d.clock.ChargeAmbient(d.inj.DeviceOp(false, cost))
}

// ReadSeq charges a sequential streaming read of n bytes.
func (d *Device) ReadSeq(n int64, pageSize int) {
	if n <= 0 {
		return
	}
	d.stats.ReadOps++
	d.stats.BytesRead += n
	d.clock.ChargeAmbient(d.inj.DeviceOp(false, d.model.seqReadCost(n, pageSize)))
}

// WriteSeq charges a sequential streaming write of n bytes.
func (d *Device) WriteSeq(n int64, pageSize int) {
	if n <= 0 {
		return
	}
	d.stats.WriteOps++
	d.stats.BytesWritten += n
	d.clock.ChargeAmbient(d.inj.DeviceOp(true, d.model.seqWriteCost(n, pageSize)))
}

// WriteAsync charges a batched asynchronous write. With the writeback
// queue disabled (WritebackDepth 0, the default) the overlap fraction of
// the cost is hidden behind computation via the flat asyncOverlap discount
// (the paper's explicit async I/O for H2 promotion buffers, §3.2). With a
// queue depth set, the write is instead submitted to the writeback queue
// and its completion is charged when the queue drains at the next
// safepoint — overlap then emerges from how much virtual time the mutator
// burns before that drain, not from a fixed discount.
func (d *Device) WriteAsync(n int64, pageSize int) {
	if n <= 0 {
		return
	}
	d.stats.WriteOps++
	d.stats.BytesWritten += n
	cost := d.model.seqWriteCost(n, pageSize)
	if d.wb.depth > 0 {
		d.submitWriteback(d.inj.DeviceOp(true, cost))
		return
	}
	cost = time.Duration(float64(cost) * (1 - asyncOverlap))
	d.clock.ChargeAmbient(d.inj.DeviceOp(true, cost))
}

// AccountRead records read traffic without charging time; used by callers
// that price access themselves (e.g. amortized byte-addressable NVM).
// Like every charged path, n <= 0 records nothing.
func (d *Device) AccountRead(n int64) {
	if n <= 0 {
		return
	}
	d.stats.ReadOps++
	d.stats.BytesRead += n
}

// AccountWrite records write traffic without charging time.
// Like every charged path, n <= 0 records nothing.
func (d *Device) AccountWrite(n int64) {
	if n <= 0 {
		return
	}
	d.stats.WriteOps++
	d.stats.BytesWritten += n
}

// SetFaultInjector attaches a fault injector to the device; all subsequent
// operation costs route through it. A nil injector restores fault-free
// behavior.
func (d *Device) SetFaultInjector(in *fault.Injector) { d.inj = in }
