package experiments

import (
	"sync"
	"testing"

	"outlierlb/internal/obs"
	"outlierlb/internal/wltemporal"
)

// TestTemporalScenarios asserts the three generator scenarios across
// the pinned seeds: the surge is noticed (detected), visibly acted on
// (mitigated), the run returns to SLA afterwards (recovered), and no
// client ever sees an error.
func TestTemporalScenarios(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(env Env, seed uint64) (*TemporalResult, error)
		// wantSurge asserts the surge window's latency visibly exceeds
		// baseline. Left false for diurnal-shift: provisioning catches
		// the peak so quickly that the window average stays near
		// baseline, which is the desired outcome, not a missing surge.
		wantSurge bool
	}{
		{"flash-crowd", Env.FlashCrowd, true},
		{"diurnal-shift", Env.DiurnalShift, false},
		{"olap-antagonist", Env.OLAPAntagonist, true},
	}
	t.Parallel()
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			forSeeds(t, seedsFor(1), func(t *testing.T, seed uint64) {
				res, err := sc.run(Env{}, seed)
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
			})
		})
	}
}

// TestTraceReplayIdentityScenario runs the record→replay scenario,
// which errors internally on any interval or action divergence.
func TestTraceReplayIdentityScenario(t *testing.T) {
	forSeeds(t, seedsFor(1), func(t *testing.T, seed uint64) {
		res, err := Env{}.TraceReplayIdentity(seed)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if !res.Scorecard.Detected || !res.Scorecard.Mitigated || !res.Scorecard.Recovered {
			t.Errorf("seed=%d: replayed scorecard incomplete: %+v", seed, res.Scorecard)
		}
	})
}

// liveFig3 is a fig3 run with every query traced (the ring fingerprint
// attaches) and its offered load recorded through Env.OnArrival.
type liveFig3 struct {
	result *Figure3Result
	tracer *obs.Tracer
	trace  *wltemporal.Trace
}

func runLiveFig3(seed uint64) liveFig3 {
	rec := wltemporal.NewRecorder()
	env := traced(Env{OnArrival: rec.Observe}, 4096)
	return liveFig3{result: env.Figure3(seed), tracer: env.Tracer, trace: rec.Trace()}
}

// liveFig3Seed1 is the seed-1 live run, shared by
// TestFig3RecordReplayIdentity and TestTracingFigure3PhasePartition.
var liveFig3Seed1 = sync.OnceValue(func() liveFig3 { return runLiveFig3(1) })

// TestFig3RecordReplayIdentity is the acceptance criterion for the
// trace layer: record a fig3 run's offered load through Env.OnArrival,
// replay it through Env.Replay into an identically-seeded run, and
// require byte-identical result and span fingerprints. Closed-loop
// sessions are gone in the replay — only the recorded submissions
// remain — yet everything downstream (service phases, controller
// actions, span trees) must not be able to tell the difference. The
// live run must also match the pinned goldens.
func TestFig3RecordReplayIdentity(t *testing.T) {
	forSeeds(t, seedsFor(1), func(t *testing.T, seed uint64) {
		var run liveFig3
		if seed == 1 {
			run = liveFig3Seed1()
		} else {
			run = runLiveFig3(seed)
		}
		liveRes, liveSpans := mustJSON(t, run.result), mustJSON(t, run.tracer.Recent(0))
		checkGolden(t, "fig3", seed, liveRes, liveSpans)

		tr := run.trace
		if len(tr.Arrivals) == 0 {
			t.Fatalf("seed=%d: recorded no arrivals", seed)
		}
		repRes, repSpans := fingerprint(t, Env{Replay: tr}, Env.Figure3, seed)

		if string(liveRes) != string(repRes) {
			t.Errorf("seed=%d: replayed fig3 result diverges from live run:\n%s\nvs\n%s",
				seed, liveRes, repRes)
		}
		if string(liveSpans) != string(repSpans) {
			t.Errorf("seed=%d: replayed span trees diverge from live run", seed)
		}
	})
}
