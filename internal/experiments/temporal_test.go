package experiments

import (
	"testing"

	"outlierlb/internal/wltemporal"
)

// temporalSeeds are the pinned seeds of the temporal-scenario sweep;
// short mode runs the first only.
var temporalSeeds = []uint64{1, 2, 3}

func shortSeeds(t *testing.T) []uint64 {
	if testing.Short() {
		return temporalSeeds[:1]
	}
	return temporalSeeds
}

// TestTemporalScenarios asserts the three generator scenarios across
// the pinned seeds: the surge is noticed (detected), visibly acted on
// (mitigated), the run returns to SLA afterwards (recovered), and no
// client ever sees an error.
func TestTemporalScenarios(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(seed uint64) (*TemporalResult, error)
		// wantSurge asserts the surge window's latency visibly exceeds
		// baseline. Left false for diurnal-shift: provisioning catches
		// the peak so quickly that the window average stays near
		// baseline, which is the desired outcome, not a missing surge.
		wantSurge bool
	}{
		{"flash-crowd", FlashCrowd, true},
		{"diurnal-shift", DiurnalShift, false},
		{"olap-antagonist", OLAPAntagonist, true},
	}
	for _, sc := range scenarios {
		for _, seed := range shortSeeds(t) {
			res, err := sc.run(seed)
			if err != nil {
				t.Fatalf("%s seed=%d: %v", sc.name, seed, err)
			}
			card := res.Scorecard
			if !card.Detected {
				t.Errorf("%s seed=%d: surge not detected", sc.name, seed)
			}
			if !card.Mitigated {
				t.Errorf("%s seed=%d: surge not mitigated", sc.name, seed)
			}
			if !card.Recovered {
				t.Errorf("%s seed=%d: never recovered after the surge cleared", sc.name, seed)
			}
			if res.ClientErrors != 0 {
				t.Errorf("%s seed=%d: %d client errors", sc.name, seed, res.ClientErrors)
			}
			if res.Offered == 0 {
				t.Errorf("%s seed=%d: load source offered nothing", sc.name, seed)
			}
			if sc.wantSurge && res.SurgeLatency <= res.BaselineLatency {
				t.Errorf("%s seed=%d: surge latency %.3f not above baseline %.3f — the pattern never bit",
					sc.name, seed, res.SurgeLatency, res.BaselineLatency)
			}
		}
	}
}

// TestTraceReplayIdentityScenario runs the record→replay scenario,
// which errors internally on any interval or action divergence.
func TestTraceReplayIdentityScenario(t *testing.T) {
	for _, seed := range shortSeeds(t) {
		res, err := TraceReplayIdentity(seed)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if !res.Scorecard.Detected || !res.Scorecard.Mitigated || !res.Scorecard.Recovered {
			t.Errorf("seed=%d: replayed scorecard incomplete: %+v", seed, res.Scorecard)
		}
	}
}

// fig3Fingerprint runs the §5.2 provisioning figure with every query
// traced and returns byte-exact JSON of the result series and the
// retained span trees.
func fig3Fingerprint(t *testing.T, seed uint64) (result, spans []byte) {
	t.Helper()
	traces, _ := withTracer(4096, func() { result = mustJSON(t, Figure3(seed)) })
	return result, mustJSON(t, traces)
}

// TestFig3RecordReplayIdentity is the acceptance criterion for the
// trace layer: record a fig3 run's offered load through the arrival
// hook, replay it through SetReplay into an identically-seeded run, and
// require byte-identical result and span fingerprints. Closed-loop
// sessions are gone in the replay — only the recorded submissions
// remain — yet everything downstream (service phases, controller
// actions, span trees) must not be able to tell the difference. The
// live run must also match the pinned goldens.
func TestFig3RecordReplayIdentity(t *testing.T) {
	for _, seed := range shortSeeds(t) {
		rec := wltemporal.NewRecorder()
		SetArrivalHook(rec.Observe)
		liveRes, liveSpans := fig3Fingerprint(t, seed)
		SetArrivalHook(nil)
		checkGolden(t, "fig3", seed, liveRes, liveSpans)

		tr := rec.Trace()
		if len(tr.Arrivals) == 0 {
			t.Fatalf("seed=%d: recorded no arrivals", seed)
		}
		SetReplay(tr)
		repRes, repSpans := fig3Fingerprint(t, seed)
		SetReplay(nil)

		if string(liveRes) != string(repRes) {
			t.Errorf("seed=%d: replayed fig3 result diverges from live run:\n%s\nvs\n%s",
				seed, liveRes, repRes)
		}
		if string(liveSpans) != string(repSpans) {
			t.Errorf("seed=%d: replayed span trees diverge from live run", seed)
		}
	}
}
