// Package rt wires the simulator's pieces (clock, devices, H1, collector,
// TeraHeap) into runnable managed runtimes and defines the Runtime
// interface the Spark and Giraph framework simulations program against.
//
// NewSession is the only construction path: a Spec names a runtime kind,
// and that kind's row in the registry (kinds.go) builds it — the paper's
// six configurations (native PS, TeraHeap, G1, Spark-MO, Panthera, G1 with
// TeraHeap) plus NG2C and Deca. The runtime is the collector itself: the
// Parallel Scavenge collector (internal/gc) for the PS-based kinds and the
// G1 baseline (internal/baselines/g1) for the G1 kinds.
package rt

import (
	"time"

	"github.com/carv-repro/teraheap-go/internal/baselines/g1"
	"github.com/carv-repro/teraheap-go/internal/check"
	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// Runtime is the managed-runtime surface the framework simulations use.
type Runtime interface {
	Classes() *vm.ClassTable
	Mem() *vm.Mem
	Clock() *simclock.Clock

	// Allocation. AllocCold* place long-lived framework data: ordinary
	// young allocation everywhere except Panthera, which pretenures such
	// objects straight into the (NVM-backed) old generation.
	Alloc(c *vm.Class) (vm.Addr, error)
	AllocRefArray(c *vm.Class, n int) (vm.Addr, error)
	AllocPrimArray(c *vm.Class, n int) (vm.Addr, error)
	AllocCold(c *vm.Class) (vm.Addr, error)
	AllocColdRefArray(c *vm.Class, n int) (vm.Addr, error)
	AllocColdPrimArray(c *vm.Class, n int) (vm.Addr, error)

	// Mutator accesses (write barriers included).
	WriteRef(obj vm.Addr, field int, val vm.Addr)
	ReadRef(obj vm.Addr, field int) vm.Addr
	WritePrim(obj vm.Addr, i int, v uint64)
	ReadPrim(obj vm.Addr, i int) uint64

	// Roots.
	NewHandle(a vm.Addr) *vm.Handle
	Release(h *vm.Handle)

	// TeraHeap hints (no-ops on runtimes without H2).
	TagRoot(h *vm.Handle, label uint64)
	MoveHint(label uint64)

	// InSecondHeap reports whether a resides in H2.
	InSecondHeap(a vm.Addr) bool

	// HeapUsed returns the bytes in use and the capacity of H1 (used by
	// Giraph's out-of-core scheduler to gauge memory pressure).
	HeapUsed() (used, capacity int64)

	// FullGC forces a major collection.
	FullGC() error
	// OOM returns the latched out-of-memory error, if any.
	OOM() error
	// SetFaultInjector attaches the run's fault injector; Fault returns
	// the run's persistent storage failure, if any (see
	// gc.CollectedHeap.Fault).
	SetFaultInjector(in *fault.Injector)
	Fault() error

	// Hooks exposes the collector lifecycle-hook plane: the registration
	// point for cross-cutting observers (verification, event accounting,
	// tracing). Both collectors fire the same events.
	Hooks() *gc.Hooks
	// VerifyNow runs the full-heap invariant verifier and returns the
	// violations found (none when the heap is consistent). It never
	// charges simulated time.
	VerifyNow() []check.Failure

	GCStats() *gc.Stats
	Breakdown() simclock.Breakdown
}

// Both collectors are runtimes.
var (
	_ Runtime = (*gc.Collector)(nil)
	_ Runtime = (*g1.G1)(nil)
)

// ChargeCompute bills mutator CPU work to the Other category; frameworks
// use it to price per-element computation.
func ChargeCompute(clock *simclock.Clock, d time.Duration) {
	clock.Charge(simclock.Other, d)
}

// mappedVMMemory adapts a storage.MappedFile to vm.Memory at base.
type mappedVMMemory struct {
	f    *storage.MappedFile
	base vm.Addr
}

func (m mappedVMMemory) Load(a vm.Addr) uint64     { return m.f.Load(a.Word(m.base)) }
func (m mappedVMMemory) Store(a vm.Addr, v uint64) { m.f.Store(a.Word(m.base), v) }
func (m mappedVMMemory) Peek(a vm.Addr) uint64     { return m.f.PeekWord(a.Word(m.base)) }
func (m mappedVMMemory) LoadRun(hdr, a vm.Addr, stride int, dst []uint64) {
	m.f.LoadRun(hdr.Word(m.base), a.Word(m.base), stride, dst)
}

// nvmDirectMemory models byte-addressable NVM accessed with load/store
// instructions (App Direct mode): every word access charges an amortized
// cacheline-granularity cost and counts device traffic. Used by the
// Panthera baseline for the NVM-resident part of the old generation.
type nvmDirectMemory struct {
	base  vm.Addr
	words []uint64
	dev   *storage.Device
	clock *simclock.Clock

	readCost  time.Duration
	writeCost time.Duration
}

func newNVMDirectMemory(base vm.Addr, sizeBytes int64, dev *storage.Device, clock *simclock.Clock) *nvmDirectMemory {
	return &nvmDirectMemory{
		base:  base,
		words: make([]uint64, sizeBytes/vm.WordSize),
		dev:   dev,
		clock: clock,
		// Amortized per-word costs: Optane load ~300ns per 64B line with
		// ~8 words per line plus partial caching.
		readCost:  35 * time.Nanosecond,
		writeCost: 70 * time.Nanosecond,
	}
}

func (m *nvmDirectMemory) Load(a vm.Addr) uint64 {
	m.clock.ChargeAmbient(m.readCost)
	m.dev.AccountRead(vm.WordSize)
	return m.words[a.Word(m.base)]
}

func (m *nvmDirectMemory) Store(a vm.Addr, v uint64) {
	m.clock.ChargeAmbient(m.writeCost)
	m.dev.AccountWrite(vm.WordSize)
	m.words[a.Word(m.base)] = v
}

// Peek reads a word without charging NVM access cost or device traffic;
// invariant checks only.
func (m *nvmDirectMemory) Peek(a vm.Addr) uint64 { return m.words[a.Word(m.base)] }
