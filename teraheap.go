// Package teraheap is the public API of the TeraHeap reproduction: a
// managed-runtime simulator with a second, high-capacity heap (H2) over a
// fast storage device, faithful to "TeraHeap: Reducing Memory Pressure in
// Managed Big Data Frameworks" (ASPLOS 2023).
//
// The package re-exports the building blocks from the internal packages:
//
//   - New / NewNative build a TeraHeap-enabled or vanilla Session: the
//     runtime plus its clock, device and second heap;
//   - Runtime is the allocation/access surface (with post-write barriers);
//   - TagRoot / MoveHint are the paper's h2_tag_root / h2_move hints;
//   - spark-like and giraph-like framework simulations live in
//     internal/spark and internal/giraph and are re-exported via aliases.
//
// A minimal session:
//
//	rt := teraheap.New(teraheap.Options{H1Size: 8 << 20, H2Size: 256 << 20}).Runtime
//	classes := rt.Classes()
//	cls := classes.MustPrimArray("data")
//	a, _ := rt.AllocPrimArray(cls, 1024)
//	h := rt.NewHandle(a)
//	rt.TagRoot(h, 1)
//	rt.MoveHint(1)
//	_ = rt.FullGC() // the group now lives in H2, still directly readable
package teraheap

import (
	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/giraph"
	"github.com/carv-repro/teraheap-go/internal/heap"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/serde"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/spark"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// Re-exported core types.
type (
	// Runtime is a managed runtime: allocation, barriered access, roots,
	// TeraHeap hints, and GC control.
	Runtime = rt.Runtime
	// Session is a wired runtime: the Runtime plus the clock, device and
	// second heap (TH, nil on a native runtime) it was built with.
	Session = rt.Session
	// Config configures the second heap (regions, card segments,
	// thresholds, promotion buffers).
	Config = core.Config
	// TeraHeap is the second heap itself.
	TeraHeap = core.TeraHeap
	// GroupMode selects dependency lists or Union-Find region groups.
	GroupMode = core.GroupMode
	// Addr is a simulated heap address.
	Addr = vm.Addr
	// Handle is a GC root holding an object address.
	Handle = vm.Handle
	// Class describes an object layout.
	Class = vm.Class
	// ClassTable registers classes.
	ClassTable = vm.ClassTable
	// Clock is the deterministic virtual clock.
	Clock = simclock.Clock
	// Breakdown is the Other / S/D+I/O / MinorGC / MajorGC time split.
	Breakdown = simclock.Breakdown
	// Device is a simulated storage device.
	Device = storage.Device
	// GCStats aggregates collector activity.
	GCStats = gc.Stats
	// OOMError reports heap exhaustion.
	OOMError = gc.OOMError
	// HeapConfig sizes the regular heap (H1).
	HeapConfig = heap.Config
)

// Cross-region tracking modes (§3.3).
const (
	DependencyLists = core.DependencyLists
	UnionFind       = core.UnionFind
)

// Device kinds.
const (
	DRAM    = storage.DRAM
	NVMeSSD = storage.NVMeSSD
	NVM     = storage.NVM
)

// Byte-size units.
const (
	KB = storage.KB
	MB = storage.MB
	GB = storage.GB
	TB = storage.TB
)

// Options configures New.
type Options struct {
	// H1Size is the regular (DRAM) heap size in bytes.
	H1Size int64
	// H2Size is the second heap capacity in bytes (0 disables TeraHeap).
	H2Size int64
	// H2Config optionally refines the H2 configuration; when nil, a
	// default configuration for H2Size is used.
	H2Config *Config
	// DeviceKind backs H2 (default NVMeSSD).
	DeviceKind storage.Kind
	// HeapConfig optionally overrides the H1 layout.
	HeapConfig *HeapConfig
	// Classes optionally supplies a pre-populated class table.
	Classes *ClassTable
	// Clock optionally supplies a shared virtual clock.
	Clock *Clock
}

// New builds a TeraHeap-enabled session (or a vanilla one when H2Size is
// zero and H2Config is nil).
func New(o Options) *Session {
	spec := rt.Spec{Kind: rt.KindPS, H1Size: o.H1Size, HeapCfg: o.HeapConfig,
		DeviceKind: o.DeviceKind, Classes: o.Classes, Clock: o.Clock}
	if o.H2Config != nil {
		spec.Kind, spec.TH = rt.KindTH, o.H2Config
	} else if o.H2Size > 0 {
		c := core.DefaultConfig(o.H2Size)
		spec.Kind, spec.TH = rt.KindTH, &c
	}
	return rt.NewSession(spec)
}

// NewNative builds a vanilla (no-H2) session: the native-JVM baseline.
func NewNative(h1Size int64) *Session { return New(Options{H1Size: h1Size}) }

// DefaultH2Config returns the default second-heap configuration for the
// given capacity.
func DefaultH2Config(h2Size int64) Config { return core.DefaultConfig(h2Size) }

// NewClassTable returns a fresh class table.
func NewClassTable() *ClassTable { return vm.NewClassTable() }

// NewClock returns a fresh virtual clock.
func NewClock() *Clock { return simclock.New() }

// NewDevice builds a storage device of the given kind on clock.
func NewDevice(kind storage.Kind, clock *Clock) *Device {
	return storage.NewDevice(kind, clock)
}

// Framework simulations, re-exported.
type (
	// SparkContext is the mini-Spark session (RDDs, block manager).
	SparkContext = spark.Context
	// SparkConf configures a SparkContext.
	SparkConf = spark.Conf
	// SparkMode selects the cache configuration (SD / TH / MO).
	SparkMode = spark.Mode
	// RDD is a partitioned, recomputable, cachable dataset.
	RDD = spark.RDD
	// GiraphEngine is the mini-Giraph BSP engine.
	GiraphEngine = giraph.Engine
	// GiraphConf configures a GiraphEngine.
	GiraphConf = giraph.Conf
	// VertexProgram is a Pregel-style vertex program.
	VertexProgram = giraph.Program
	// Serializer models Kryo/Java serialization over the simulated heap.
	Serializer = serde.Serializer
)

// Spark cache modes (Table 2).
const (
	SparkSD = spark.ModeSD
	SparkTH = spark.ModeTH
	SparkMO = spark.ModeMO
)

// Giraph modes.
const (
	GiraphOOC = giraph.ModeOOC
	GiraphTH  = giraph.ModeTH
)

// NewSparkContext builds a mini-Spark session.
func NewSparkContext(conf SparkConf) *SparkContext { return spark.NewContext(conf) }

// NewGiraphEngine builds a mini-Giraph engine over graph adjacency data.
var NewGiraphEngine = giraph.NewEngine
