package experiments

import (
	"math"
	"testing"

	"outlierlb/internal/obs"
)

// traced returns env with a fresh full-sampling tracer (as -trace.sample
// 1.0 attaches) that retains the last ring finished traces.
func traced(env Env, ring int) Env {
	env.Tracer = obs.NewTracer(1, 1.0, ring)
	return env
}

// fingerprint runs one scenario under env with every query traced and
// returns the JSON of its result and of its retained span trees.
func fingerprint[R any](t *testing.T, env Env, run func(Env, uint64) R, seed uint64) (result, spans []byte) {
	t.Helper()
	env = traced(env, 4096)
	result = mustJSON(t, run(env, seed))
	return result, mustJSON(t, env.Tracer.Recent(0))
}

// assertWellFormed validates every retained trace and checks the
// structural contract the tracing layer promises: attempt and
// retry-wait spans are always direct children of the query root (retry
// hops are siblings, never nested), and exec spans live under attempts.
func assertWellFormed(t *testing.T, name string, traces []*obs.Span) (multiAttempt int) {
	t.Helper()
	if len(traces) == 0 {
		t.Fatalf("%s: no traces retained", name)
	}
	for _, root := range traces {
		if err := obs.Validate(root); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		attempts := 0
		var walk func(s *obs.Span)
		walk = func(s *obs.Span) {
			switch s.Kind {
			case obs.SpanAttempt:
				attempts++
				if s.Parent != root.ID {
					t.Fatalf("%s trace %d: attempt span %d nested under span %d, not the root",
						name, root.Trace, s.ID, s.Parent)
				}
			case obs.SpanRetryWait:
				if s.Parent != root.ID {
					t.Fatalf("%s trace %d: retry-wait span %d nested under span %d, not the root",
						name, root.Trace, s.ID, s.Parent)
				}
			case obs.SpanExec:
				if p := findSpan(root, s.Parent); p == nil || p.Kind != obs.SpanAttempt {
					t.Fatalf("%s trace %d: exec span %d not under an attempt", name, root.Trace, s.ID)
				}
			}
			for _, c := range s.Children {
				walk(c)
			}
		}
		walk(root)
		if attempts == 0 && root.Err == "" {
			t.Fatalf("%s trace %d: successful query with no attempt span", name, root.Trace)
		}
		if attempts > 1 {
			multiAttempt++
		}
	}
	return multiAttempt
}

func findSpan(s *obs.Span, id obs.SpanID) *obs.Span {
	if s.ID == id {
		return s
	}
	for _, c := range s.Children {
		if found := findSpan(c, id); found != nil {
			return found
		}
	}
	return nil
}

// TestTracingChaosWellFormed runs the gray-failure chaos drill under
// three seeds (one in short mode) with every query traced: all span
// trees must validate (resolvable parents, no orphans), the retries the
// breaker provokes must show up as sibling attempt spans under the
// query roots, and result and spans must match the pinned goldens.
func TestTracingChaosWellFormed(t *testing.T) {
	forSeeds(t, seedsFor(1), func(t *testing.T, seed uint64) {
		env := traced(Env{}, 2048)
		r, err := env.ChaosGrayFailure(seed)
		if err != nil {
			t.Fatal(err)
		}
		if r.Retries == 0 {
			t.Fatalf("seed=%d: gray failure provoked no retries", seed)
		}
		traces, stats := env.Tracer.Recent(0), env.Tracer.Stats()
		checkGolden(t, "chaos-gray", seed, mustJSON(t, r), mustJSON(t, traces))
		if stats.Sampled != stats.Started {
			t.Errorf("seed=%d: rate 1.0 sampled %d of %d queries", seed, stats.Sampled, stats.Started)
		}
		multi := assertWellFormed(t, "gray", traces)
		if multi == 0 {
			t.Errorf("seed=%d: no retained trace shows a retry hop (sibling attempt spans)", seed)
		}
	})
}

// TestTracingOverloadWellFormed traces the overload brownout: every
// tree still validates under admission pressure, and the roots carry
// the gate's verdict events. (The ring retains the run's final queries,
// which post-readmission are all admitted — the rejected-verdict path
// is unit-tested in internal/admission.)
func TestTracingOverloadWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("overload tracing sweep is slow; run without -short")
	}
	t.Parallel()
	env := traced(Env{}, 4096)
	r, err := env.Overload(pinnedSeeds[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.ShedInteractions == 0 {
		t.Fatal("overload shed nothing; the scenario lost its bite")
	}
	traces := env.Tracer.Recent(0)
	assertWellFormed(t, "overload", traces)
	admitted := 0
	for _, root := range traces {
		for _, e := range root.Events {
			if e.Kind == obs.EventAdmitted {
				admitted++
				break
			}
		}
	}
	if admitted == 0 {
		t.Error("no retained trace carries the admission gate's admitted verdict event")
	}
}

// TestTracingFigure3PhasePartition is the acceptance check: a
// fig3-style run at sample rate 1.0, where every trace's queue, service
// and retry phases must sum to its root duration within 1%. It checks
// the traces of the live seed-1 run TestFig3RecordReplayIdentity
// replays.
func TestTracingFigure3PhasePartition(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-3 tracing run is slow; run without -short")
	}
	t.Parallel()
	tracer := liveFig3Seed1().tracer
	traces, stats := tracer.Recent(0), tracer.Stats()
	if stats.Sampled != stats.Started || stats.Started == 0 {
		t.Fatalf("rate 1.0 sampled %d of %d queries", stats.Sampled, stats.Started)
	}
	assertWellFormed(t, "fig3", traces)
	for _, root := range traces {
		total := root.End - root.Start
		p := obs.Breakdown(root)
		sum := p.Queue + p.Service + p.Retry
		if tol := 0.01 * total; math.Abs(sum-total) > tol+1e-12 {
			t.Fatalf("trace %d: phases %.6f+%.6f+%.6f = %.6f vs total %.6f (off by more than 1%%)",
				root.Trace, p.Queue, p.Service, p.Retry, sum, total)
		}
		if total > 0 && p.Service <= 0 {
			t.Fatalf("trace %d: %.4fs query with no service time", root.Trace, total)
		}
	}
}

// TestTracingGoldensUntouched proves attaching a tracer cannot perturb
// the simulation: the untraced figure-3 result must hash to the pinned
// fig3/1 result fingerprint, which TestFig3RecordReplayIdentity checks
// against the fully traced run (sampling hashes a private seed, never
// the simulation RNG).
func TestTracingGoldensUntouched(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-3 run is slow; run without -short")
	}
	t.Parallel()
	got := sha256Hex(mustJSON(t, untracedFig3()))
	if want := goldenFingerprints["fig3/1"].result; got != want {
		t.Fatalf("untraced fig3 seed 1 result hashes to %s, the traced run is pinned at %s: tracing perturbed the run", got, want)
	}
}
