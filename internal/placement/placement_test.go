package placement

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/vm"
)

// lcg is the test's deterministic event-stream generator: the same seed
// must produce the same decision/feedback stream in any process.
type lcg struct{ s uint64 }

func (r *lcg) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s
}

// drive feeds n pseudo-random policy events drawn from seed into p,
// mirroring the call mix the collectors produce.
func drive(p Policy, seed uint64, n int) {
	r := &lcg{s: seed}
	for i := 0; i < n; i++ {
		v := r.next()
		site := Site(v % 257)
		age := int(v >> 8 % 19)
		switch v >> 32 % 6 {
		case 0:
			p.AllocTarget(site, int(v%4096), v%2 == 0)
		case 1:
			if p.Promote(site, age, 3) {
				p.NoteScavenge(site, age, true)
			} else {
				p.NoteScavenge(site, age, false)
			}
		case 2:
			status := uint64(site) | vm.FlagPretenured
			p.NoteDeadOld(status)
		case 3:
			p.NoteDeadOld(uint64(site)) // dead but not pretenured
		case 4:
			p.NotePretenured(site)
		case 5:
			p.MoveToH2OnMinor(v%64, v%2 == 0)
			p.MoveClosureAtMajor(v%64, v%3 == 0)
		}
	}
}

// TestDefaultIsLegacy pins the default policy to the collectors'
// pre-seam behavior: pure pass-through decisions, no-op feedback.
func TestDefaultIsLegacy(t *testing.T) {
	var d Default
	if d.AllocTarget(7, 100, true) != AllocDefault {
		t.Error("Default.AllocTarget must leave placement to the collector")
	}
	for age := 0; age < 6; age++ {
		if got, want := d.Promote(1, age, 3), age >= 3; got != want {
			t.Errorf("Promote(age=%d, tenure=3) = %v, want %v", age, got, want)
		}
	}
	for _, adv := range []bool{true, false} {
		if d.MoveToH2OnMinor(5, adv) != adv {
			t.Errorf("MoveToH2OnMinor must return advised=%v verbatim", adv)
		}
		if d.MoveClosureAtMajor(5, adv) != adv {
			t.Errorf("MoveClosureAtMajor must return legacy=%v verbatim", adv)
		}
	}
	if s := d.Stats(); s.Policy != "default" {
		t.Errorf("Stats().Policy = %q", s.Policy)
	}
}

// TestNG2CDeterministicProfile is the classification determinism
// property: two independent profilers fed the identical event stream
// end with byte-identical profiles (the cross-process half of the
// property is CI's two-process pretenure cmp).
func TestNG2CDeterministicProfile(t *testing.T) {
	for _, seed := range []uint64{1, 7, 0xDEADBEEF} {
		a := NewNG2C()
		b := NewNG2C()
		drive(a, seed, 50000)
		drive(b, seed, 50000)
		sa, sb := a.Stats(), b.Stats()
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("seed %d: profiles diverged:\n a %+v\n b %+v", seed, sa, sb)
		}
		if fmt.Sprintf("%+v", sa) != fmt.Sprintf("%+v", sb) {
			t.Fatalf("seed %d: rendered profiles diverged", seed)
		}
		if sa.SitesProfiled == 0 {
			t.Fatalf("seed %d: stream profiled no sites (test is vacuous)", seed)
		}
	}
}

// TestNG2CFlipAndDemote walks one site through the full lifecycle:
// young, flipped to pretenure at the promote threshold, demoted at the
// misprediction threshold.
func TestNG2CFlipAndDemote(t *testing.T) {
	p := NewNG2C()
	const site = Site(42)
	if p.AllocTarget(site, 8, false) != AllocDefault {
		t.Fatal("unflipped site must allocate young")
	}
	for i := 0; i < ng2cPromoteThreshold; i++ {
		if p.AllocTarget(site, 8, false) != AllocDefault {
			t.Fatalf("site flipped after %d promotions, before the threshold", i)
		}
		if got := p.Promote(site, 3, 3); !got {
			t.Fatalf("age=tenure must promote (i=%d)", i)
		}
		p.NoteScavenge(site, 3, true)
	}
	if p.AllocTarget(site, 8, false) != AllocOld {
		t.Fatalf("site must flip to pretenure after %d promotions", ng2cPromoteThreshold)
	}
	if !p.Promote(site, 1, 3) {
		t.Fatal("pretenured site must be survivor-free (promote below tenure age)")
	}
	p.NotePretenured(site)
	s := p.Stats()
	if s.SitesPretenured != 1 || s.PretenuredObjects != 1 {
		t.Fatalf("after flip: %+v", s)
	}
	if len(s.Generations) != ng2cGenerations || s.Generations[0]+s.Generations[1]+s.Generations[2] != 1 {
		t.Fatalf("generation accounting: %+v", s.Generations)
	}
	status := uint64(site) | vm.FlagPretenured
	for i := 0; i < ng2cDemoteThreshold; i++ {
		if p.AllocTarget(site, 8, false) != AllocOld {
			t.Fatalf("site demoted after %d dead pretenured objects, before the threshold", i)
		}
		p.NoteDeadOld(status)
	}
	if p.AllocTarget(site, 8, false) != AllocDefault {
		t.Fatalf("site must demote after %d dead pretenured objects", ng2cDemoteThreshold)
	}
	s = p.Stats()
	if s.Demotions != 1 || s.Mispredictions != ng2cDemoteThreshold || s.SitesPretenured != 0 {
		t.Fatalf("after demotion: %+v", s)
	}
	// Non-pretenured dead objects are not mispredictions.
	p.NoteDeadOld(uint64(site))
	if got := p.Stats().Mispredictions; got != ng2cDemoteThreshold {
		t.Fatalf("unflagged dead old object counted as misprediction: %d", got)
	}
}

// TestNG2CZeroAllocSteadyState pins the minor-GC hot path: once a site's
// slab slot exists, policy decisions and feedback perform zero heap
// allocations per operation.
func TestNG2CZeroAllocSteadyState(t *testing.T) {
	p := NewNG2C()
	// Warm-up: touch the full site range so the slab is grown.
	for s := Site(0); s < 1024; s++ {
		p.AllocTarget(s, 8, false)
	}
	p.site(Site(siteMask)) // worst-case slab size
	allocs := testing.AllocsPerRun(1000, func() {
		p.AllocTarget(7, 64, false)
		p.Promote(7, 2, 3)
		p.NoteScavenge(7, 2, false)
		p.NoteScavenge(7, 3, true)
		p.NoteDeadOld(uint64(7) | vm.FlagPretenured)
		p.NotePretenured(7)
	})
	if allocs != 0 {
		t.Fatalf("steady-state policy decisions allocate: %g allocs/op", allocs)
	}
}

// TestDecaEpochs pins the lifetime-region policy: label 0 keeps legacy
// behavior, labelled data always moves, epochs count distinct labels.
func TestDecaEpochs(t *testing.T) {
	p := NewDeca()
	if p.MoveToH2OnMinor(0, false) || !p.MoveToH2OnMinor(0, true) {
		t.Fatal("label 0 must keep the advised decision")
	}
	if !p.MoveToH2OnMinor(3, false) || !p.MoveToH2OnMinor(3, false) {
		t.Fatal("labelled young objects must always move")
	}
	if !p.MoveClosureAtMajor(4, false) || !p.MoveClosureAtMajor(3, true) {
		t.Fatal("label closures must always move at major GC")
	}
	if p.Promote(1, 2, 3) || !p.Promote(1, 3, 3) {
		t.Fatal("PS fallback must keep the age threshold")
	}
	s := p.Stats()
	if s.Policy != "deca" || s.EagerLabels != 2 || s.EagerMinorMoves != 2 || s.EagerMajorClosures != 1 {
		t.Fatalf("stats: %+v", s)
	}
	// A label past the dense limit exercises the map fallback.
	if !p.MoveToH2OnMinor(decaDenseLabelLimit+12345, false) {
		t.Fatal("huge labels must still move")
	}
	if got := p.Stats().EagerLabels; got != 3 {
		t.Fatalf("huge label not counted as an epoch: %d", got)
	}
}

// TestDecaZeroAllocSteadyState: known labels decide without allocating.
func TestDecaZeroAllocSteadyState(t *testing.T) {
	p := NewDeca()
	p.MoveToH2OnMinor(900, false)
	allocs := testing.AllocsPerRun(1000, func() {
		p.MoveToH2OnMinor(900, false)
		p.MoveClosureAtMajor(900, false)
		p.AllocTarget(1, 8, false)
		p.NoteScavenge(1, 1, false)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Deca decisions allocate: %g allocs/op", allocs)
	}
}

// FuzzNG2C: no event stream, however degenerate, may panic the profiler,
// and identical streams must produce identical profiles.
func FuzzNG2C(f *testing.F) {
	f.Add(uint64(1), 1000)
	f.Add(uint64(0), 1)
	f.Add(^uint64(0), 5000)
	f.Add(uint64(12345), 19999)
	f.Fuzz(func(t *testing.T, seed uint64, n int) {
		if n < 0 {
			n = -n
		}
		n %= 20000
		a := NewNG2C()
		b := NewNG2C()
		drive(a, seed, n)
		drive(b, seed, n)
		if !reflect.DeepEqual(a.Stats(), b.Stats()) {
			t.Fatalf("identical streams diverged: %+v vs %+v", a.Stats(), b.Stats())
		}
	})
}

// FuzzSiteFromStatus: site extraction is total over the status-word
// space, and extracted sites index the profiler safely.
func FuzzSiteFromStatus(f *testing.F) {
	f.Add(uint64(0))
	f.Add(^uint64(0))
	f.Add(uint64(vm.FlagPretenured | 0xFFFF))
	f.Fuzz(func(t *testing.T, status uint64) {
		s := SiteFromStatus(status)
		if uint64(s) > uint64(siteMask) {
			t.Fatalf("site %d out of class-ID range", s)
		}
		p := NewNG2C()
		p.AllocTarget(s, 1, false)
		p.NoteDeadOld(status)
	})
}
