package giraph

import (
	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

// BuildEngine loads g into an engine over a fresh PS session (ModeOOC) or
// TeraHeap session (ModeTH, with an H2 of h2Size bytes) with an H1 of
// h1Size bytes.
func BuildEngine(mode Mode, h1Size, h2Size int64, g *workloads.Graph, parts int) (*Engine, error) {
	spec := rt.Spec{Kind: rt.KindPS, H1Size: h1Size}
	if mode == ModeTH {
		cfg := core.DefaultConfig(h2Size)
		cfg.RegionSize = 256 * storage.KB
		cfg.CacheBytes = 4 * storage.MB
		spec.Kind, spec.TH = rt.KindTH, &cfg
	}
	return NewEngine(Conf{
		RT: rt.NewSession(spec).Runtime, Mode: mode, Threads: 4, OOCCacheBytes: 2 * storage.MB,
	}, g, parts)
}
