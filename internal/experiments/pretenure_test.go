package experiments

import (
	"strings"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/rt"
)

// TestPretenureKindsRegistry: the figure's kind list resolves through
// rt.KindsByName — nil is every registered kind in registry order;
// unknown names fail with the full valid set.
func TestPretenureKindsRegistry(t *testing.T) {
	all, err := rt.KindsByName(nil)
	if err != nil {
		t.Fatalf("rt.KindsByName(nil): %v", err)
	}
	if len(all) != len(rt.Kinds()) {
		t.Fatalf("got %d kinds, registry has %d", len(all), len(rt.Kinds()))
	}
	for i, e := range rt.Kinds() {
		if all[i] != e.Kind {
			t.Errorf("kind %d: got %v want %v (registry order)", i, all[i], e.Kind)
		}
	}
	some, err := rt.KindsByName([]string{"ng2c", "g1+th", "sd"})
	if err != nil {
		t.Fatalf("rt.KindsByName(names): %v", err)
	}
	if some[0] != rt.KindNG2C || some[1] != rt.KindG1TH || some[2] != rt.KindPS {
		t.Errorf("name resolution: %v", some)
	}
	if _, err := rt.KindsByName([]string{"bogus"}); err == nil ||
		!strings.Contains(err.Error(), `unknown runtime kind "bogus"`) ||
		!strings.Contains(err.Error(), strings.Join(rt.KindNames(), " ")) {
		t.Errorf("unknown kind error must name the valid set: %v", err)
	}
}

// TestNewKindsVerifiedRuns pushes both new runtime kinds through a full
// (scaled-down) Spark run with the internal/check heap verifier enabled
// around every collection, and requires their placement policies to have
// actually fired: NG2C must profile allocation sites, Deca must move
// labelled epochs eagerly. Hints are disabled on the NG2C run so the
// profiler, not the h2_move advisory, decides placement.
func TestNewKindsVerifiedRuns(t *testing.T) {
	ctx := &rt.Layers{Verify: true}
	for _, tc := range []struct {
		kind rt.Kind
		cfg  func(*core.Config)
	}{
		{rt.KindNG2C, func(c *core.Config) { c.EnableMoveHint = false }},
		{rt.KindDeca, nil},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			res := RunSpark(SparkRun{Workload: "PR", Runtime: tc.kind, DramGB: 44,
				DatasetScale: 0.1, Ctx: ctx, THConfig: tc.cfg})
			if res.OOM || res.Faulted || res.Failed {
				t.Fatalf("verified run unhealthy: %+v err=%s", res, res.FailErr)
			}
			p := res.Placement
			if p == nil {
				t.Fatal("run returned no placement stats")
			}
			switch tc.kind {
			case rt.KindNG2C:
				if p.Policy != "ng2c" || p.SitesProfiled == 0 {
					t.Errorf("NG2C policy idle under verification: %+v", p)
				}
			case rt.KindDeca:
				if p.Policy != "deca" || p.EagerLabels == 0 || p.EagerMinorMoves == 0 {
					t.Errorf("Deca policy idle under verification: %+v", p)
				}
			}
		})
	}
}
