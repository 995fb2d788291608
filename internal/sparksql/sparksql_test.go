package sparksql_test

import (
	"testing"

	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/serde"
	"github.com/carv-repro/teraheap-go/internal/spark"
	"github.com/carv-repro/teraheap-go/internal/sparksql"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

func newTable(t *testing.T, n int) (*sparksql.Table, *workloads.Rows) {
	t.Helper()
	jvm := rt.NewSession(rt.Spec{Kind: rt.KindPS, H1Size: 16 * storage.MB}).Runtime
	ctx := spark.NewContext(spark.Conf{
		RT: jvm, Mode: spark.ModeMO, Threads: 4, SerKind: serde.Kryo,
	})
	rows := workloads.GenRows(23, n, 64)
	return sparksql.Load(ctx, rows, 8), rows
}

func TestGroupBySumMatchesReference(t *testing.T) {
	tbl, rows := newTable(t, 5000)
	got, err := tbl.GroupBySum()
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int32]int64)
	for i := 0; i < rows.N; i++ {
		want[rows.Keys[i]] += rows.Vals[i]
	}
	if len(got) != len(want) {
		t.Fatalf("groups: %d vs %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("group %d = %d, want %d", k, got[k], v)
		}
	}
}

func TestFilterCountMatchesReference(t *testing.T) {
	tbl, rows := newTable(t, 5000)
	got, err := tbl.FilterCount(500)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, v := range rows.Vals {
		if v >= 500 {
			want++
		}
	}
	if got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
}

func TestSelfJoinMatchesReference(t *testing.T) {
	tbl, rows := newTable(t, 3000)
	got, err := tbl.SelfJoinSample(16)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int32]int64)
	for _, k := range rows.Keys {
		if k < 16 {
			counts[k]++
		}
	}
	var want int64
	for _, k := range rows.Keys {
		want += counts[k]
	}
	if got != want {
		t.Fatalf("join matches = %d, want %d", got, want)
	}
}

func TestQueryMixDeterministic(t *testing.T) {
	t1, _ := newTable(t, 2000)
	c1, err := t1.RunQueryMix(3)
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := newTable(t, 2000)
	c2, err := t2.RunQueryMix(3)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatalf("checksums differ: %d vs %d", c1, c2)
	}
}
