// Package sparksql implements the paper's RDD-RL workload (Table 3): a
// relational query mix — scans, filters, and hash aggregations — over a
// cached row RDD. Hash aggregation materializes sizable temporary state,
// the allocation behaviour that makes RL OOM-prone under G1's humongous
// fragmentation (§7.1).
package sparksql

import (
	"time"

	"github.com/carv-repro/teraheap-go/internal/spark"
	"github.com/carv-repro/teraheap-go/internal/vm"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

// rowWords is the heap footprint of one row (key, value, two payload
// columns).
const rowWords = 4

// Table couples a Go-side row set with its cached RDD.
type Table struct {
	Ctx   *spark.Context
	Data  *workloads.Rows
	Parts int
	RDD   *spark.RDD
}

func (t *Table) partRange(p int) (int, int) {
	per := (t.Data.N + t.Parts - 1) / t.Parts
	lo := p * per
	hi := lo + per
	if hi > t.Data.N {
		hi = t.Data.N
	}
	return lo, hi
}

// Load materializes and persists the row RDD. A partition is a ref array
// of per-row prim arrays — plus one large columnar batch buffer per
// partition, the humongous-object allocation pattern of Spark SQL.
func Load(ctx *spark.Context, data *workloads.Rows, parts int) *Table {
	t := &Table{Ctx: ctx, Data: data, Parts: parts}
	t.RDD = spark.NewRDD(ctx, parts, t.buildPartition).Persist()
	return t
}

func (t *Table) buildPartition(ctx *spark.Context, p int) (*vm.Handle, spark.PartStats, error) {
	lo, hi := t.partRange(p)
	n := hi - lo
	var st spark.PartStats
	root, err := ctx.RT.AllocRefArray(ctx.ClsPartition, n+1)
	if err != nil {
		return nil, st, err
	}
	h := ctx.RT.NewHandle(root)
	st.Objects = 1
	st.Words = int64(vm.HeaderWords + n + 1)

	// Columnar batch buffer: one large array per partition. These are the
	// long-lived humongous objects that fragment G1 (§7.1): each spans
	// multiple G1 regions and can never be moved.
	batch, err := ctx.RT.AllocPrimArray(ctx.ClsData, n*rowWords)
	if err != nil {
		ctx.RT.Release(h)
		return nil, st, err
	}
	ctx.RT.WriteRef(h.Addr(), 0, batch)
	st.Objects++
	st.Words += int64(vm.HeaderWords + n*rowWords)

	for i := 0; i < n; i++ {
		row, err := ctx.RT.AllocPrimArray(ctx.ClsData, rowWords)
		if err != nil {
			ctx.RT.Release(h)
			return nil, st, err
		}
		ctx.RT.WritePrim(row, 0, uint64(t.Data.Keys[lo+i]))
		ctx.RT.WritePrim(row, 1, uint64(t.Data.Vals[lo+i]))
		ctx.RT.WritePrim(row, 2, uint64(lo+i))
		ctx.RT.WritePrim(row, 3, uint64((lo+i)*31%997))
		ctx.RT.WriteRef(h.Addr(), 1+i, row)
		st.Objects++
		st.Words += int64(vm.HeaderWords + rowWords)
		st.Elements++
	}
	ctx.ChargeElements(int64(n * rowWords))
	return h, st, nil
}

// GroupBySum runs SELECT key, SUM(value) GROUP BY key and returns the
// aggregate map.
func (t *Table) GroupBySum() (map[int32]int64, error) {
	ctx := t.Ctx
	agg := make(map[int32]int64)
	err := t.RDD.ForEachPartition(func(p int, root vm.Addr) error {
		lo, hi := t.partRange(p)
		// Per-partition hash-aggregation buffer (temporary).
		if _, err := ctx.RT.AllocPrimArray(ctx.ClsData, (hi-lo)/2+8); err != nil {
			return err
		}
		for i := 0; i < hi-lo; i++ {
			row := ctx.RT.ReadRef(root, 1+i)
			k := int32(ctx.RT.ReadPrim(row, 0))
			v := int64(ctx.RT.ReadPrim(row, 1))
			agg[k] += v
		}
		ctx.ChargeElements(int64(hi - lo))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Shuffle(int64(len(agg) * 2 * t.Parts)); err != nil {
		return nil, err
	}
	return agg, nil
}

// FilterCount runs SELECT COUNT(*) WHERE value >= threshold.
func (t *Table) FilterCount(threshold int64) (int64, error) {
	ctx := t.Ctx
	var count int64
	err := t.RDD.ForEachPartition(func(p int, root vm.Addr) error {
		lo, hi := t.partRange(p)
		for i := 0; i < hi-lo; i++ {
			row := ctx.RT.ReadRef(root, 1+i)
			if int64(ctx.RT.ReadPrim(row, 1)) >= threshold {
				count++
			}
		}
		ctx.ChargeElements(int64(hi - lo))
		return nil
	})
	return count, err
}

// SelfJoinSample joins the table with itself on key over a sampled key
// range, materializing join hash tables as temporaries — the RL query
// with the heaviest intermediate state.
func (t *Table) SelfJoinSample(keyLimit int32) (int64, error) {
	ctx := t.Ctx
	// Build side: key -> count (only keys < keyLimit).
	build := make(map[int32]int64)
	err := t.RDD.ForEachPartition(func(p int, root vm.Addr) error {
		lo, hi := t.partRange(p)
		// Join hash-table temporaries.
		if _, err := ctx.RT.AllocPrimArray(ctx.ClsData, (hi-lo)+8); err != nil {
			return err
		}
		for i := 0; i < hi-lo; i++ {
			row := ctx.RT.ReadRef(root, 1+i)
			k := int32(ctx.RT.ReadPrim(row, 0))
			if k < keyLimit {
				build[k]++
			}
		}
		ctx.ChargeElements(int64(hi - lo))
		return nil
	})
	if err != nil {
		return 0, err
	}
	if err := ctx.Shuffle(int64(len(build)) * 2); err != nil {
		return 0, err
	}
	// Probe side.
	var matches int64
	err = t.RDD.ForEachPartition(func(p int, root vm.Addr) error {
		lo, hi := t.partRange(p)
		for i := 0; i < hi-lo; i++ {
			row := ctx.RT.ReadRef(root, 1+i)
			k := int32(ctx.RT.ReadPrim(row, 0))
			if c, ok := build[k]; ok {
				matches += c
			}
		}
		ctx.ChargeElements(int64(hi - lo))
		return nil
	})
	ctx.ChargeCompute(time.Duration(matches/16) * time.Nanosecond)
	return matches, err
}

// RunQueryMix runs the RL workload: rounds of the three queries.
func (t *Table) RunQueryMix(rounds int) (int64, error) {
	var checksum int64
	for i := 0; i < rounds; i++ {
		agg, err := t.GroupBySum()
		if err != nil {
			return 0, err
		}
		// order-insensitive: the checksum is a commutative sum.
		for k, v := range agg {
			checksum += int64(k) ^ v
		}
		c, err := t.FilterCount(500)
		if err != nil {
			return 0, err
		}
		checksum += c
		j, err := t.SelfJoinSample(64)
		if err != nil {
			return 0, err
		}
		checksum += j
	}
	return checksum, nil
}
