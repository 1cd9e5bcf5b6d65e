package traffic

import (
	"testing"
	"time"

	"repro/internal/eventsim"
	"repro/internal/medium"
	"repro/internal/netstack"
	"repro/internal/phy"
	"repro/internal/xrand"
)

func TestBackgroundHitsTargetLoad(t *testing.T) {
	sched := eventsim.New()
	ch := medium.NewChannel(phy.Channel1, sched)
	for _, load := range []float64{0.1, 0.3, 0.5} {
		bg := NewBackground(sched, ch, 10, medium.Location{}, load, xrand.New(uint64(load*100)))
		start := sched.Now()
		startAir := ch.TxAirtime[medium.KindData]
		bg.Start()
		sched.RunUntil(start + 5*time.Second)
		bg.Stop()
		frac := float64(ch.TxAirtime[medium.KindData]-startAir) / float64(5*time.Second)
		if frac < load*0.75 || frac > load*1.25 {
			t.Errorf("offered %.2f, achieved airtime %.3f", load, frac)
		}
	}
}

func TestBackgroundZeroLoadIsSilent(t *testing.T) {
	sched := eventsim.New()
	ch := medium.NewChannel(phy.Channel1, sched)
	bg := NewBackground(sched, ch, 10, medium.Location{}, 0, xrand.New(1))
	bg.Start()
	sched.RunUntil(time.Second)
	if n := ch.TxCount[medium.KindData]; n != 0 {
		t.Errorf("zero-load background sent %d frames", n)
	}
}

func TestBackgroundStop(t *testing.T) {
	sched := eventsim.New()
	ch := medium.NewChannel(phy.Channel1, sched)
	bg := NewBackground(sched, ch, 10, medium.Location{}, 0.3, xrand.New(2))
	bg.Start()
	sched.RunUntil(time.Second)
	bg.Stop()
	count := ch.TxCount[medium.KindData]
	sched.RunUntil(2 * time.Second)
	after := ch.TxCount[medium.KindData]
	// At most one in-flight arrival may land after Stop.
	if after > count+1 {
		t.Errorf("background kept transmitting after Stop: %d -> %d", count, after)
	}
}

func TestTopSitesProfile(t *testing.T) {
	sites := TopSites()
	if len(sites) != 10 {
		t.Fatalf("sites = %d, want 10", len(sites))
	}
	names := map[string]bool{}
	for _, s := range sites {
		names[s.Name] = true
		if len(s.Objects) < 5 {
			t.Errorf("%s has only %d objects", s.Name, len(s.Objects))
		}
		total := 0
		for _, o := range s.Objects {
			if o <= 0 {
				t.Errorf("%s has a non-positive object", s.Name)
			}
			total += o
		}
		// 2015 front pages weighed roughly 0.2-4 MB.
		if total < 150_000 || total > 4_000_000 {
			t.Errorf("%s total weight %d bytes implausible", s.Name, total)
		}
	}
	for _, want := range []string{"google.com", "yahoo.com", "reddit.com", "ebay.com"} {
		if !names[want] {
			t.Errorf("missing site %s", want)
		}
	}
}

func TestTopSitesDeterministic(t *testing.T) {
	a, b := TopSites(), TopSites()
	for i := range a {
		if len(a[i].Objects) != len(b[i].Objects) {
			t.Fatalf("site %s object count differs between calls", a[i].Name)
		}
		for j := range a[i].Objects {
			if a[i].Objects[j] != b[i].Objects[j] {
				t.Fatalf("site %s object %d differs", a[i].Name, j)
			}
		}
	}
}

// instantPath delivers immediately (for loader unit tests).
type instantPath struct{}

func (instantPath) Send(p *netstack.Packet) {
	if p.Dst != nil {
		p.Dst.Deliver(p)
	}
}

func TestPageLoaderCompletesOverIdealPath(t *testing.T) {
	sched := eventsim.New()
	site := Site{Name: "test", Objects: []int{50_000, 20_000, 20_000, 20_000}}
	loader := NewPageLoader(sched, site, instantPath{}, instantPath{}, xrand.New(4))
	var plt time.Duration
	done := false
	loader.OnComplete = func(d time.Duration) { plt = d; done = true }
	loader.Start()
	sched.RunUntil(30 * time.Second)
	if !done {
		t.Fatal("page load did not complete")
	}
	// Over an instant path the PLT is dominated by server think time.
	if plt <= 0 || plt > 5*time.Second {
		t.Errorf("PLT = %v, implausible for an ideal path", plt)
	}
}

func TestPageLoaderFetchesAllObjects(t *testing.T) {
	sched := eventsim.New()
	site := TopSites()[6] // google.com: smallest
	bytesMoved := 0
	down := netstack.FuncPath(func(p *netstack.Packet) {
		bytesMoved += p.Bytes
		if p.Dst != nil {
			p.Dst.Deliver(p)
		}
	})
	loader := NewPageLoader(sched, site, down, instantPath{}, xrand.New(5))
	done := false
	loader.OnComplete = func(time.Duration) { done = true }
	loader.Start()
	sched.RunUntil(60 * time.Second)
	if !done {
		t.Fatal("load did not complete")
	}
	want := 0
	for _, o := range site.Objects {
		want += o
	}
	if bytesMoved < want {
		t.Errorf("moved %d bytes, want at least the page weight %d", bytesMoved, want)
	}
}

func TestPageLoaderRetriesLostRequests(t *testing.T) {
	sched := eventsim.New()
	site := Site{Name: "flaky", Objects: []int{10_000}}
	drops := 0
	up := netstack.FuncPath(func(p *netstack.Packet) {
		// Drop the first two requests; deliver afterwards.
		if drops < 2 {
			drops++
			return
		}
		if p.Dst != nil {
			p.Dst.Deliver(p)
		}
	})
	loader := NewPageLoader(sched, site, instantPath{}, up, xrand.New(6))
	done := false
	loader.OnComplete = func(time.Duration) { done = true }
	loader.Start()
	sched.RunUntil(30 * time.Second)
	if !done {
		t.Fatal("loader did not recover from lost requests")
	}
	if drops != 2 {
		t.Errorf("drops = %d, want 2", drops)
	}
}
