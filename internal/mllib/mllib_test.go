package mllib_test

import (
	"testing"

	"github.com/carv-repro/teraheap-go/internal/mllib"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/serde"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/spark"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

func newCtx(t *testing.T) *spark.Context {
	t.Helper()
	jvm := rt.NewSession(rt.Spec{Kind: rt.KindPS, H1Size: 16 * storage.MB}).Runtime
	return spark.NewContext(spark.Conf{
		RT: jvm, Mode: spark.ModeMO, Threads: 4, SerKind: serde.Kryo,
	})
}

func load(t *testing.T, n int) *mllib.Dataset {
	t.Helper()
	return mllib.Load(newCtx(t), workloads.GenPoints(17, n, 6), 8)
}

func TestLogisticRegressionLearns(t *testing.T) {
	d := load(t, 2000)
	w, err := d.LogisticRegression(15)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := d.Accuracy(w)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.80 {
		t.Fatalf("LgR accuracy %.3f < 0.80", acc)
	}
}

func TestSVMLearns(t *testing.T) {
	d := load(t, 2000)
	w, err := d.SVM(15)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := d.Accuracy(w)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.80 {
		t.Fatalf("SVM accuracy %.3f < 0.80", acc)
	}
}

func TestLinearRegressionReducesLoss(t *testing.T) {
	d := load(t, 1500)
	w1, err := d.LinearRegression(1)
	if err != nil {
		t.Fatal(err)
	}
	d2 := load(t, 1500)
	w15, err := d2.LinearRegression(15)
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := d.Accuracy(w1)
	a15, _ := d2.Accuracy(w15)
	if a15 < a1-0.02 { // allow convergence plateau jitter
		t.Fatalf("more epochs hurt: %.3f -> %.3f", a1, a15)
	}
	if a15 < 0.75 {
		t.Fatalf("LR accuracy %.3f", a15)
	}
}

func TestNaiveBayesModelIsSane(t *testing.T) {
	d := load(t, 3000)
	m, err := d.NaiveBayes()
	if err != nil {
		t.Fatal(err)
	}
	if p := m.Prior[0] + m.Prior[1]; p < 0.999 || p > 1.001 {
		t.Fatalf("priors sum to %v", p)
	}
	// Cluster means are separated by ~1.6 per dimension (labels at ±0.8).
	for j := 0; j < 6; j++ {
		sep := m.Mean[1][j] - m.Mean[0][j]
		if sep < 0.8 {
			t.Fatalf("dimension %d means not separated: %v vs %v", j, m.Mean[0][j], m.Mean[1][j])
		}
		if m.Var[0][j] <= 0 || m.Var[1][j] <= 0 {
			t.Fatalf("non-positive variance at %d", j)
		}
	}
}

func TestKMeansReducesWCSS(t *testing.T) {
	d := load(t, 2000)
	w1, err := d.KMeans(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	d2 := load(t, 2000)
	w10, err := d2.KMeans(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if w10 > w1 {
		t.Fatalf("k-means WCSS grew: %v -> %v", w1, w10)
	}
}

func TestTrainingChargesComputeAndCacheReads(t *testing.T) {
	ctx := newCtx(t)
	d := mllib.Load(ctx, workloads.GenPoints(19, 1000, 6), 8)
	if _, err := d.SVM(5); err != nil {
		t.Fatal(err)
	}
	b := ctx.Breakdown()
	if b.Get(simclock.Other) <= 0 {
		t.Fatal("no compute charged")
	}
	if b.Get(simclock.SerDesIO) <= 0 {
		t.Fatal("no shuffle S/D charged")
	}
}
