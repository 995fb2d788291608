// Package spark simulates the memory-management-relevant slice of Apache
// Spark over the managed runtime: RDDs materialized as heap object graphs,
// a block manager with the paper's three cache configurations (Spark-SD's
// on-heap + serialized off-heap split, Spark-MO's all-on-heap, and
// TeraHeap), shuffle serialization, and a task loop that models executor
// mutator threads (§5, Fig 4).
package spark

import (
	"time"

	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/serde"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// Mode selects the caching configuration (Table 2).
type Mode int

// Cache configurations.
const (
	// ModeSD is Spark-SD: deserialized partitions on-heap up to a budget,
	// the rest serialized to an off-heap device store.
	ModeSD Mode = iota
	// ModeTH is TeraHeap: partitions tagged and moved to H2.
	ModeTH
	// ModeMO is Spark-MO / Panthera: everything cached on-heap (the heap
	// itself may live on NVM).
	ModeMO
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeSD:
		return "spark-sd"
	case ModeTH:
		return "teraheap"
	case ModeMO:
		return "spark-mo"
	}
	return "?"
}

// Conf configures a Spark context.
type Conf struct {
	RT      rt.Runtime
	Mode    Mode
	Threads int // executor mutator threads (paper default: 8)
	SerKind serde.Kind

	// OffHeapDev backs the serialized off-heap cache in ModeSD.
	OffHeapDev *storage.Device
	// OffHeapCacheBytes is the DRAM page-cache share for off-heap blobs.
	OffHeapCacheBytes int64
	// OnHeapCacheBytes is the ModeSD on-heap cache budget (paper: 50% of
	// the heap).
	OnHeapCacheBytes int64
}

// computePerElem is the mutator CPU cost per element visited.
const computePerElem = 60 * time.Nanosecond

// Context is a Spark session.
type Context struct {
	Conf Conf
	RT   rt.Runtime
	Ser  *serde.Serializer
	BM   *BlockManager

	// Heap classes for partition data.
	ClsPartition *vm.Class // ref array: partition root
	ClsData      *vm.Class // prim array: element payloads
	ClsElem      *vm.Class // fixed: boxed element {1 ref, 2 prims}

	nextRDD uint64
}

// NewContext builds a Spark context over the runtime in conf.
func NewContext(conf Conf) *Context {
	if conf.Threads <= 0 {
		conf.Threads = 8
	}
	classes := conf.RT.Classes()
	cls := func(name string, mk func() *vm.Class) *vm.Class {
		if c := classes.ByName(name); c != nil {
			return c
		}
		return mk()
	}
	ctx := &Context{
		Conf: conf,
		RT:   conf.RT,
		ClsPartition: cls("spark.Partition", func() *vm.Class {
			return classes.MustRefArray("spark.Partition")
		}),
		ClsData: cls("spark.Data", func() *vm.Class {
			return classes.MustPrimArray("spark.Data")
		}),
		ClsElem: cls("spark.Elem", func() *vm.Class {
			return classes.MustFixed("spark.Elem", 1, 2)
		}),
	}
	ctx.Ser = serde.New(conf.RT, conf.SerKind)
	ctx.Ser.Parallelism = conf.Threads
	ctx.BM = newBlockManager(ctx)
	return ctx
}

// NextRDDID hands out RDD ids (used as TeraHeap labels, so they start
// at 1).
func (ctx *Context) NextRDDID() uint64 {
	ctx.nextRDD++
	return ctx.nextRDD
}

// ChargeCompute bills mutator work divided across the executor threads.
func (ctx *Context) ChargeCompute(d time.Duration) {
	ctx.RT.Clock().Charge(simclock.Other, d/time.Duration(ctx.Conf.Threads))
}

// ChargeElements bills per-element compute for n elements.
func (ctx *Context) ChargeElements(n int64) {
	ctx.ChargeCompute(time.Duration(n) * computePerElem)
}

// Shuffle models one shuffle stage moving the given number of element
// payload words: serialize on the map side, deserialize on the reduce
// side, both allocating temporaries and charging S/D CPU.
func (ctx *Context) Shuffle(words int64) error {
	if words <= 0 {
		return nil
	}
	if err := ctx.Ser.ChargeSerializeStream(words); err != nil {
		return err
	}
	return ctx.Ser.ChargeDeserialize(0, words)
}

// Breakdown snapshots the execution-time breakdown.
func (ctx *Context) Breakdown() simclock.Breakdown { return ctx.RT.Breakdown() }
