package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/runner"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// Table5 reports DRAM metadata per TB of H2 space for region sizes from
// 1 MB to 256 MB (the paper measures 417 MB down to 2 MB).
func (*Env) Table5() string {
	var sb strings.Builder
	sb.WriteString("== Table 5: H2 metadata per TB vs region size ==\n")
	sb.WriteString("region size (MB):   ")
	sizes := []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}
	for _, s := range sizes {
		fmt.Fprintf(&sb, "%8d", s)
	}
	sb.WriteString("\nmetadata (MB/TB):   ")
	for _, s := range sizes {
		fmt.Fprintf(&sb, "%8.1f", float64(core.MetadataBytesPerTB(s*storage.MB))/float64(storage.MB))
	}
	sb.WriteString("\n")
	return sb.String()
}

// BarrierOverhead measures the post-write-barrier cost of the extra H2
// reference range check (§4): a DaCapo-like pointer-churn microworkload
// runs with EnableTeraHeap off (vanilla) and on, and the slowdown is
// reported. The paper measures <3% on average.
func (e *Env) BarrierOverhead() string {
	run := func(withTH bool) time.Duration {
		clock := simclock.New()
		classes := vm.NewClassTable()
		node := classes.MustFixed("dacapo.Node", 2, 2)
		sspec := rt.Spec{Kind: rt.KindPS, H1Size: 4 * storage.MB,
			Classes: classes, Clock: clock, Layers: rt.Layers{Verify: e.Layers.Verify}}
		if withTH {
			cfg := core.DefaultConfig(16 * storage.MB)
			cfg.RegionSize = 64 * storage.KB
			sspec.Kind = rt.KindTH
			sspec.TH = &cfg
		}
		jvm := rt.NewSession(sspec).Runtime
		// Pointer-churn mutator: build and rewire small object graphs with
		// DaCapo-like barrier density (a few reference stores per ~100ns
		// of compute).
		h := jvm.NewHandle(vm.NullAddr)
		for i := 0; i < 40000; i++ {
			a, err := jvm.Alloc(node)
			if err != nil {
				panic(err)
			}
			jvm.WriteRef(a, 0, h.Addr())
			jvm.WritePrim(a, 0, uint64(i))
			rt.ChargeCompute(clock, 60*time.Nanosecond)
			if i%7 != 0 {
				// Short-lived: drop immediately.
				continue
			}
			h.Set(a)
			if prev := jvm.ReadRef(a, 0); !prev.IsNull() {
				jvm.WriteRef(a, 1, prev) // extra barrier traffic
			}
		}
		return clock.Breakdown().Total()
	}
	// Both microworkload instances are self-contained; run them through
	// the executor like every other pair of configurations.
	times := runner.Do(2, e.Jobs, func(i int) time.Duration { return run(i == 1) })
	base, th := times[0], times[1]
	overhead := 100 * (float64(th)/float64(base) - 1)
	return fmt.Sprintf("== §4 barrier overhead (DaCapo-like churn) ==\n"+
		"vanilla=%v  EnableTeraHeap=%v  overhead=%.2f%% (paper: <3%% avg)\n",
		base.Round(time.Microsecond), th.Round(time.Microsecond), overhead)
}

// AblationGroupMode compares dependency lists against Union-Find region
// groups (§3.3) at scale, reproducing the paper's X→Y→Z example: chains
// of labelled object groups with directional cross-region references,
// where only each chain's tail stays referenced from H1. Dependency lists
// reclaim the chain bodies; Union-Find keeps whole groups alive.
func (e *Env) AblationGroupMode() string {
	run := func(mode core.GroupMode) (reclaimed int64, h2Used int64) {
		clock := simclock.New()
		classes := vm.NewClassTable()
		arr := classes.MustRefArray("Object[]")
		data := classes.MustPrimArray("long[]")
		thCfg := core.DefaultConfig(64 * storage.MB)
		thCfg.RegionSize = 16 * storage.KB
		thCfg.GroupMode = mode
		ses := e.thSession(thCfg, classes, clock)
		jvm := ses.Runtime

		const chains, chainLen, payload = 40, 3, 128
		type link struct {
			h     *vm.Handle
			label uint64
		}
		var all [][]link
		label := uint64(1)
		for c := 0; c < chains; c++ {
			var chain []link
			for l := 0; l < chainLen; l++ {
				root, err := jvm.AllocRefArray(arr, 4)
				if err != nil {
					panic(err)
				}
				h := jvm.NewHandle(root)
				body, err := jvm.AllocPrimArray(data, payload)
				if err != nil {
					panic(err)
				}
				jvm.WriteRef(h.Addr(), 0, body)
				jvm.TagRoot(h, label)
				jvm.MoveHint(label)
				chain = append(chain, link{h: h, label: label})
				label++
			}
			all = append(all, chain)
		}
		if err := jvm.FullGC(); err != nil {
			panic(err)
		}
		// Wire X→Y→Z inside H2 (directional cross-region references).
		for _, chain := range all {
			for l := 0; l+1 < len(chain); l++ {
				jvm.WriteRef(chain[l].h.Addr(), 1, chain[l+1].h.Addr())
			}
		}
		if err := jvm.FullGC(); err != nil {
			panic(err)
		}
		// Drop every root except each chain's tail, as in the paper's
		// example where only Z stays referenced from H1.
		for _, chain := range all {
			for l := 0; l+1 < len(chain); l++ {
				jvm.Release(chain[l].h)
			}
		}
		if err := jvm.FullGC(); err != nil {
			panic(err)
		}
		th := ses.TH
		return th.Stats().RegionsReclaimed, th.UsedBytes()
	}
	type groupResult struct{ reclaimed, used int64 }
	modes := []core.GroupMode{core.DependencyLists, core.UnionFind}
	rs := runner.Do(len(modes), e.Jobs, func(i int) groupResult {
		r, used := run(modes[i])
		return groupResult{reclaimed: r, used: used}
	})
	depR, depUsed := rs[0].reclaimed, rs[0].used
	ufR, ufUsed := rs[1].reclaimed, rs[1].used
	return fmt.Sprintf("== §3.3 ablation: dependency lists vs Union-Find (X→Y→Z chains) ==\n"+
		"%-12s regionsReclaimed=%-5d h2LiveBytes=%d\n%-12s regionsReclaimed=%-5d h2LiveBytes=%d\n"+
		"dep lists reclaim the dead chain bodies; groups keep them alive\n",
		"dep-lists", depR, depUsed, "union-find", ufR, ufUsed)
}
