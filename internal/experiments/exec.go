package experiments

import (
	"fmt"

	"github.com/carv-repro/teraheap-go/internal/rt"
)

// Spec is one submission to the parallel experiment executor: a tagged
// union over the three run kinds. Exactly one field must be set.
type Spec struct {
	Spark  *SparkRun
	Giraph *GiraphRun
	Serve  *ServeRun
}

// run executes the spec, scoping it by layers when its own Ctx is nil.
// Every run is fully self-contained (own clock, heap, collector, devices),
// so specs may execute concurrently.
func (s Spec) run(layers *rt.Layers) RunResult {
	switch {
	case s.Spark != nil:
		r := *s.Spark
		if r.Ctx == nil {
			r.Ctx = layers
		}
		return RunSpark(r)
	case s.Giraph != nil:
		r := *s.Giraph
		if r.Ctx == nil {
			r.Ctx = layers
		}
		return RunGiraph(r)
	case s.Serve != nil:
		r := *s.Serve
		if r.Ctx == nil {
			r.Ctx = layers
		}
		return RunServe(r)
	}
	panic(fmt.Sprintf("experiments: empty Spec %+v", s))
}

// label names a spec for the failed-run result when its goroutine panics:
// the name RunSpark, RunGiraph or RunServe would have given the run.
func (s Spec) label(i int) string {
	switch {
	case s.Spark != nil:
		return s.Spark.name()
	case s.Giraph != nil:
		return s.Giraph.name()
	case s.Serve != nil:
		return s.Serve.name()
	}
	return fmt.Sprintf("spec-%d", i)
}

// SparkSpec wraps a SparkRun as a Spec.
func SparkSpec(r SparkRun) Spec { return Spec{Spark: &r} }

// GiraphSpec wraps a GiraphRun as a Spec.
func GiraphSpec(r GiraphRun) Spec { return Spec{Giraph: &r} }
