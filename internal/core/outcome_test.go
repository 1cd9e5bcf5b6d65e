package core

import (
	"math"
	"testing"

	"repro/internal/harvester"
	"repro/internal/surface"
)

// outcomeRec is one surface query outcome as a sink saw it.
type outcomeRec struct {
	bin int
	out surface.Outcome
}

// countingSink records every surface query outcome it is handed. A nil
// *countingSink is a valid sink that records nothing.
type countingSink struct{ recs []outcomeRec }

func (c *countingSink) SurfaceOutcome(bin int, out surface.Outcome) {
	if c == nil {
		return
	}
	c.recs = append(c.recs, outcomeRec{bin, out})
}

// anyFallback reports whether any outcome is an exact-solver fallback.
func anyFallback(recs []outcomeRec) bool {
	for _, r := range recs {
		if r.out != surface.OutcomeHit {
			return true
		}
	}
	return false
}

// outcomeDistances sweeps 4–24 ft, through the battery-free boot knee
// where the surface falls back to the exact solver; the direct solver
// costs milliseconds a query, so Exact runs take only the knee.
var outcomeDistances = map[bool][]float64{
	false: {4, 9, 14, 17, 19, 21, 24},
	true:  {19},
}

// outcomeLinks returns one link per distance and occupancy, grouped by
// distance, at several occupancies including an idle bin.
func outcomeLinks(distances []float64) []PowerLink {
	var links []PowerLink
	for _, d := range distances {
		for _, occ := range [][3]float64{{0, 0, 0}, {0.1, 0, 0.2}, {0.3, 0.3, 0.3}, {0.9, 0.5, 0.7}} {
			links = append(links, PoWiFiLinkOccupancy(d, occ))
		}
	}
	return links
}

// TestTempSensorOutcomeContract pins what a temperature sensor reports
// to its sink: Evaluate makes one boot query and, only when the chain
// boots, one operating query, both for the bin it was asked about;
// EvaluateBatch element i reports exactly what Evaluate(i, …) does;
// NetHarvestedW makes one operating query outside any bin (-1); the
// direct solver (Exact) reports nothing; and no sink changes an answer.
func TestTempSensorOutcomeContract(t *testing.T) {
	for _, mk := range []func() *TempSensorDevice{NewBatteryFreeTempSensor, NewRechargingTempSensor} {
		for _, exact := range []bool{false, true} {
			links := outcomeLinks(outcomeDistances[exact])
			bare, nilPtr, counted := mk(), mk(), mk()
			nilPtr.Tele = (*countingSink)(nil)
			sink := &countingSink{}
			counted.Tele = sink
			for _, d := range []*TempSensorDevice{bare, nilPtr, counted} {
				d.Exact = exact
			}
			version := bare.Harvester.Version

			var streamed []outcomeRec
			occs := make([][3]float64, 0, len(links))
			for bin, link := range links {
				sink.recs = sink.recs[:0]
				rate, net := bare.Evaluate(bin, link)
				rateN, netN := nilPtr.Evaluate(bin, link)
				rateC, netC := counted.Evaluate(bin, link)
				for _, got := range [][2]float64{{rateN, netN}, {rateC, netC}} {
					if math.Float64bits(got[0]) != math.Float64bits(rate) || math.Float64bits(got[1]) != math.Float64bits(net) {
						t.Errorf("%v exact=%v bin %d: observed answer %v, bare (%v, %v)", version, exact, bin, got, rate, net)
					}
				}
				want := 0
				if !exact {
					want = 1
					if counted.Harvester.CanBootBursty(link.FullChannelPowers()) {
						want = 2
					}
				}
				if len(sink.recs) != want {
					t.Errorf("%v exact=%v bin %d: Evaluate reported %d outcomes, want %d", version, exact, bin, len(sink.recs), want)
				}
				for _, r := range sink.recs {
					if r.bin != bin {
						t.Errorf("%v exact=%v: Evaluate(%d, …) reported bin %d", version, exact, bin, r.bin)
					}
				}
				streamed = append(streamed, sink.recs...)
				occs = append(occs, link.Occupancy)

				sink.recs = sink.recs[:0]
				net = bare.NetHarvestedW(link)
				if got := counted.NetHarvestedW(link); math.Float64bits(got) != math.Float64bits(net) {
					t.Errorf("%v exact=%v bin %d: observed NetHarvestedW %v, bare %v", version, exact, bin, got, net)
				}
				want = 1
				if exact {
					want = 0
				}
				if len(sink.recs) != want || (want == 1 && sink.recs[0].bin != -1) {
					t.Errorf("%v exact=%v bin %d: NetHarvestedW reported %v, want %d outcome(s) at bin -1", version, exact, bin, sink.recs, want)
				}
			}

			// A batch shares one geometry, so batch each distance's links.
			per := len(links) / len(outcomeDistances[exact])
			var batched []outcomeRec
			for start := 0; start < len(links); start += per {
				rate := make([]float64, per)
				net := make([]float64, per)
				sink.recs = sink.recs[:0]
				counted.EvaluateBatch(links[start].DistanceFt, occs[start:start+per], rate, net)
				for _, r := range sink.recs {
					batched = append(batched, outcomeRec{r.bin + start, r.out})
				}
				for i := range rate {
					wantRate, wantNet := bare.Evaluate(start+i, links[start+i])
					if math.Float64bits(rate[i]) != math.Float64bits(wantRate) || math.Float64bits(net[i]) != math.Float64bits(wantNet) {
						t.Errorf("%v exact=%v element %d: batch (%v, %v), Evaluate (%v, %v)", version, exact, start+i, rate[i], net[i], wantRate, wantNet)
					}
				}
			}
			if !exact && version == harvester.BatteryFree && !anyFallback(streamed) {
				t.Errorf("%v: the sweep met no surface fallback, so it pins grid hits only", version)
			}
			if len(batched) != len(streamed) {
				t.Fatalf("%v exact=%v: EvaluateBatch reported %d outcomes, Evaluate %d", version, exact, len(batched), len(streamed))
			}
			for i := range batched {
				if batched[i] != streamed[i] {
					t.Errorf("%v exact=%v: outcome %d batch %+v, Evaluate %+v", version, exact, i, batched[i], streamed[i])
				}
			}
		}
	}
}

// TestCameraOutcomeContract pins the camera's side of the contract: the
// camera banks whatever the chain harvests, so Evaluate makes one
// operating query for its bin and NetHarvestedW one at bin -1; Exact
// reports nothing; and no sink changes an answer.
func TestCameraOutcomeContract(t *testing.T) {
	for _, mk := range []func() *CameraDevice{NewBatteryFreeCamera, NewRechargingCamera} {
		for _, exact := range []bool{false, true} {
			bare, nilPtr, counted := mk(), mk(), mk()
			nilPtr.Tele = (*countingSink)(nil)
			sink := &countingSink{}
			counted.Tele = sink
			for _, d := range []*CameraDevice{bare, nilPtr, counted} {
				d.Exact = exact
			}
			version := bare.Harvester.Version
			want := 1
			if exact {
				want = 0
			}
			for bin, link := range outcomeLinks(outcomeDistances[exact]) {
				sink.recs = sink.recs[:0]
				net := bare.Evaluate(bin, link)
				for _, got := range []float64{nilPtr.Evaluate(bin, link), counted.Evaluate(bin, link)} {
					if math.Float64bits(got) != math.Float64bits(net) {
						t.Errorf("%v exact=%v bin %d: observed answer %v, bare %v", version, exact, bin, got, net)
					}
				}
				if len(sink.recs) != want || (want == 1 && sink.recs[0].bin != bin) {
					t.Errorf("%v exact=%v bin %d: Evaluate reported %v, want %d outcome(s) at that bin", version, exact, bin, sink.recs, want)
				}

				sink.recs = sink.recs[:0]
				if got := counted.NetHarvestedW(link); math.Float64bits(got) != math.Float64bits(net) {
					t.Errorf("%v exact=%v bin %d: NetHarvestedW %v, Evaluate %v", version, exact, bin, got, net)
				}
				if len(sink.recs) != want || (want == 1 && sink.recs[0].bin != -1) {
					t.Errorf("%v exact=%v bin %d: NetHarvestedW reported %v, want %d outcome(s) at bin -1", version, exact, bin, sink.recs, want)
				}
			}
		}
	}
}
