package vm_test

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// fileMem maps a storage.MappedFile at base, the way the runtimes back H2
// and the memory-mode H1: every word charges through the page cache.
type fileMem struct {
	f    *storage.MappedFile
	base vm.Addr
}

func (m fileMem) Load(a vm.Addr) uint64     { return m.f.Load(a.Word(m.base)) }
func (m fileMem) Store(a vm.Addr, v uint64) { m.f.Store(a.Word(m.base), v) }
func (m fileMem) Peek(a vm.Addr) uint64     { return m.f.PeekWord(a.Word(m.base)) }

// layout is one address-space composition plus the charged state the
// window must leave untouched.
type layout struct {
	as     *vm.AddressSpace
	clock  *simclock.Clock
	dev    *storage.Device
	files  []*storage.MappedFile
	ranges [][2]vm.Addr // mapped [start, end) ranges, for the trace
	edges  []vm.Addr    // words that must be in the trace
}

func (l *layout) mapFile(start vm.Addr, size int64) {
	f := storage.NewMappedFile(l.dev, size, storage.DefaultPageSize, 4*storage.DefaultPageSize)
	l.as.Map(start, start+vm.Addr(size), fileMem{f: f, base: start})
	l.files = append(l.files, f)
	l.ranges = append(l.ranges, [2]vm.Addr{start, start + vm.Addr(size)})
}

func (l *layout) mapRAM(start vm.Addr, size int64) {
	l.as.Map(start, start+vm.Addr(size), vm.NewRAM(start, size))
	l.ranges = append(l.ranges, [2]vm.Addr{start, start + vm.Addr(size)})
}

const (
	winH1 = 64 * storage.KB
	winH2 = 64 * storage.KB
)

// windowLayouts builds every composition the runtimes use: all of H1 in
// DRAM (PS, G1), a DRAM prefix with a charged suffix (Panthera), a charged
// H1 with no window (Spark-MO), and a DRAM H1 beside a mapped H2
// (TeraHeap).
var windowLayouts = map[string]func() *layout{
	"ps": func() *layout {
		l := newLayout()
		l.mapRAM(vm.H1Base, winH1)
		return l
	},
	"panthera": func() *layout {
		l := newLayout()
		dramEnd := vm.H1Base + winH1/2
		l.mapRAM(vm.H1Base, winH1/2)
		l.mapFile(dramEnd, winH1/2)
		l.edges = []vm.Addr{dramEnd - vm.WordSize, dramEnd}
		return l
	},
	"mo": func() *layout {
		l := newLayout()
		l.mapFile(vm.H1Base, winH1)
		return l
	},
	"th": func() *layout {
		l := newLayout()
		l.mapRAM(vm.H1Base, winH1)
		l.mapFile(vm.H2Base, winH2)
		l.edges = []vm.Addr{vm.H2Base, vm.H2Base + winH2 - vm.WordSize}
		return l
	},
}

func newLayout() *layout {
	clock := simclock.New()
	return &layout{as: &vm.AddressSpace{}, clock: clock, dev: storage.NewDevice(storage.NVMeSSD, clock)}
}

// refLoad, refStore and refPeek route every access through Resolve: the
// lookup the windows replace.
func refLoad(as *vm.AddressSpace, a vm.Addr) uint64     { return as.Resolve(a).Load(a) }
func refStore(as *vm.AddressSpace, a vm.Addr, v uint64) { as.Resolve(a).Store(a, v) }
func refPeek(as *vm.AddressSpace, a vm.Addr) uint64 {
	m := as.Resolve(a)
	if p, ok := m.(vm.Peeker); ok {
		return p.Peek(a)
	}
	return m.Load(a)
}

// TestWindowMatchesResolve drives one fixed random Load/Store/Peek trace,
// plus object copies and initialisations, through each layout twice: once
// through the windowed AddressSpace methods and once through Resolve. The
// values, page-cache hits and faults, device ops and clock must agree.
func TestWindowMatchesResolve(t *testing.T) {
	for name, build := range windowLayouts {
		t.Run(name, func(t *testing.T) {
			got, want := build(), build()
			mg := vm.NewMem(got.as, vm.NewClassTable())
			c := mg.Classes.MustFixed("T", 1, 2)
			rng := rand.New(rand.NewSource(13))
			word := func() vm.Addr {
				if len(got.edges) > 0 && rng.Intn(8) == 0 {
					return got.edges[rng.Intn(len(got.edges))]
				}
				r := got.ranges[rng.Intn(len(got.ranges))]
				return r[0] + vm.Addr(rng.Int63n(int64(r[1]-r[0])/vm.WordSize))*vm.WordSize
			}
			for i := 0; i < 20000; i++ {
				a := word()
				switch op := rng.Intn(10); {
				case op < 4:
					if g, w := got.as.Load(a), refLoad(want.as, a); g != w {
						t.Fatalf("op %d: Load(%v) = %d, want %d", i, a, g, w)
					}
				case op < 7:
					v := rng.Uint64()
					got.as.Store(a, v)
					refStore(want.as, a, v)
				case op < 8:
					if g, w := got.as.Peek(a), refPeek(want.as, a); g != w {
						t.Fatalf("op %d: Peek(%v) = %d, want %d", i, a, g, w)
					}
				case op < 9:
					// A copy between two mapped ranges; either may
					// straddle two mappings (Panthera's dramEnd), and src
					// and dst may overlap in either direction.
					n := 1 + rng.Intn(16)
					src, dst := word(), word()
					if rng.Intn(2) == 0 {
						dst = src + vm.Addr(rng.Intn(33)-16)*vm.WordSize
					}
					if !mapped(got.as, src, n) || !mapped(got.as, dst, n) {
						continue
					}
					mg.CopyObject(dst, src, n)
					for w := 0; w < n; w++ {
						off := vm.Addr(w * vm.WordSize)
						refStore(want.as, dst+off, refLoad(want.as, src+off))
					}
				default:
					n := vm.HeaderWords + rng.Intn(16)
					if !mapped(got.as, a, n) {
						continue
					}
					mg.InitObject(a, c, 1, n)
					refStore(want.as, a, uint64(c.ID))
					refStore(want.as, a+vm.WordSize, uint64(n)|1<<32)
					for w := 2; w < n; w++ {
						refStore(want.as, a+vm.Addr(w*vm.WordSize), 0)
					}
				}
			}
			for _, r := range got.ranges {
				for a := r[0]; a < r[1]; a += vm.WordSize {
					if g, w := got.as.Peek(a), refPeek(want.as, a); g != w {
						t.Fatalf("final image differs at %v: %d, want %d", a, g, w)
					}
				}
			}
			for i := range got.files {
				g, w := got.files[i].Cache(), want.files[i].Cache()
				if g.Hits != w.Hits || g.Faults != w.Faults {
					t.Errorf("file %d: hits/faults %d/%d, want %d/%d", i, g.Hits, g.Faults, w.Hits, w.Faults)
				}
			}
			if len(got.files) > 0 && got.files[0].Cache().Hits == 0 {
				t.Error("trace never hit a mapped file: vacuous")
			}
			if g, w := got.dev.Stats(), want.dev.Stats(); g != w {
				t.Errorf("device stats %+v, want %+v", g, w)
			}
			if g, w := got.clock.Now(), want.clock.Now(); g != w {
				t.Errorf("clock %v, want %v", g, w)
			}
			if g, w := got.clock.Breakdown(), want.clock.Breakdown(); g != w {
				t.Errorf("breakdown %v, want %v", g, w)
			}
		})
	}
}

// mapped reports whether all n words from a are mapped.
func mapped(as *vm.AddressSpace, a vm.Addr, n int) bool {
	for w := 0; w < n; w++ {
		if as.Resolve(a+vm.Addr(w*vm.WordSize)) == nil {
			return false
		}
	}
	return true
}

// TestWindowUnmappedPanics: addresses below, between and above the
// mappings still panic on every access path.
func TestWindowUnmappedPanics(t *testing.T) {
	for name, build := range windowLayouts {
		l := build()
		end := l.ranges[len(l.ranges)-1][1]
		for _, a := range []vm.Addr{vm.NullAddr, vm.H1Base - vm.WordSize, vm.H1Base + winH1, vm.H2Base - vm.WordSize, end, vm.H2Base + winH2} {
			if l.as.Resolve(a) != nil {
				continue
			}
			for op, f := range map[string]func(){
				"load from": func() { l.as.Load(a) },
				"store to":  func() { l.as.Store(a, 1) },
				"peek of":   func() { l.as.Peek(a) },
			} {
				msg := func() (msg string) {
					defer func() { msg, _ = recover().(string) }()
					f()
					return ""
				}()
				if !strings.Contains(msg, op+" unmapped address") {
					t.Errorf("%s: %s %v: panic %q", name, op, a, msg)
				}
			}
		}
	}
}
