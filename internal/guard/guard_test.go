package guard

import (
	"errors"
	"testing"

	"outlierlb/internal/core"
	"outlierlb/internal/obs"
	"outlierlb/internal/sla"
)

// feed closes one synthetic interval for app after a tick boundary.
func feed(w *Watchdog, now float64, app string, p99, tput float64, queries int64, met bool, rejected int64) {
	w.IntervalClosed(now, app, sla.Interval{
		P99Latency: p99, Throughput: tput, Queries: queries, Met: met,
	}, rejected)
}

func TestWatchdogRevertsRegression(t *testing.T) {
	log := obs.NewRecorder(128)
	w := New(Config{EvaluateAfter: 2, BaselineWindow: 2, Tolerance: 0.25}, log)

	now := 0.0
	for i := 0; i < 3; i++ {
		now += 10
		w.BeginTick(now)
		feed(w, now, "tpcw", 0.5, 100, 1000, true, 0)
	}

	undone := false
	w.Committed(core.Action{Time: now, Kind: core.ActionReschedule, App: "tpcw", Class: "Browse"},
		func() error { undone = true; return nil })
	if got := w.Stats().Actions; got != 1 {
		t.Fatalf("Actions = %d, want 1", got)
	}

	// Post-action intervals are dramatically worse.
	for i := 0; i < 2; i++ {
		now += 10
		w.BeginTick(now)
		feed(w, now, "tpcw", 2.0, 40, 400, false, 0)
	}
	if !undone {
		t.Fatalf("harmful action not rolled back")
	}
	st := w.Stats()
	if st.Suspects != 1 || st.Reverts != 1 {
		t.Fatalf("stats = %+v, want 1 suspect and 1 revert", st)
	}
	var sawSuspect, sawRevert bool
	for _, e := range log.Events().Recent(0) {
		switch e.Kind {
		case obs.EventActionSuspect:
			sawSuspect = true
			if e.Fields["score"] <= 1.25 {
				t.Fatalf("suspect score %.3f not above tolerance", e.Fields["score"])
			}
		case obs.EventActionReverted:
			sawRevert = true
		}
	}
	if !sawSuspect || !sawRevert {
		t.Fatalf("missing watchdog events: suspect=%v revert=%v", sawSuspect, sawRevert)
	}
}

func TestWatchdogLetsGoodActionsStand(t *testing.T) {
	w := New(Config{EvaluateAfter: 2, BaselineWindow: 2}, nil)
	now := 0.0
	for i := 0; i < 3; i++ {
		now += 10
		w.BeginTick(now)
		feed(w, now, "tpcw", 1.0, 50, 500, false, 0)
	}
	undone := false
	w.Committed(core.Action{Time: now, Kind: core.ActionReschedule, App: "tpcw", Class: "Browse"},
		func() error { undone = true; return nil })
	for i := 0; i < 3; i++ {
		now += 10
		w.BeginTick(now)
		feed(w, now, "tpcw", 0.4, 80, 800, true, 0)
	}
	if undone {
		t.Fatalf("improving action was rolled back")
	}
	if st := w.Stats(); st.Suspects != 0 {
		t.Fatalf("stats = %+v, want no suspects", st)
	}
}

func TestWatchdogShedRateInFitness(t *testing.T) {
	w := New(Config{EvaluateAfter: 1, BaselineWindow: 2, Tolerance: 0.1,
		Weights: Weights{Shed: 1}}, nil)
	now := 0.0
	rejected := int64(0)
	for i := 0; i < 3; i++ {
		now += 10
		w.BeginTick(now)
		feed(w, now, "tpcw", 0.5, 100, 1000, true, rejected)
	}
	undone := false
	w.Committed(core.Action{Time: now, Kind: core.ActionShedClass, App: "tpcw", Class: "Browse"},
		func() error { undone = true; return nil })
	// Same latency and throughput, but half the offered load now bounces.
	for i := 0; i < 2; i++ {
		now += 10
		rejected += 1000
		w.BeginTick(now)
		feed(w, now, "tpcw", 0.5, 100, 1000, true, rejected)
	}
	if !undone {
		t.Fatalf("shed-rate regression not detected")
	}
}

func TestWatchdogCooldownAndRateLimit(t *testing.T) {
	log := obs.NewRecorder(64)
	w := New(Config{}, log)
	w.BeginTick(10)
	for i := 0; i < rateLimit; i++ {
		if ok, _ := w.Allow(10, core.ActionShedClass, "tpcw", "", "c"); !ok {
			t.Fatalf("action %d unexpectedly vetoed", i)
		}
		w.Committed(core.Action{Kind: core.ActionShedClass, App: "tpcw"}, nil)
	}
	ok, reason := w.Allow(10, core.ActionShedClass, "tpcw", "", "c")
	if ok {
		t.Fatalf("rate limit did not veto")
	}
	if reason == "" {
		t.Fatalf("veto without reason")
	}
	if st := w.Stats(); st.Vetoes != 1 {
		t.Fatalf("stats = %+v, want 1 veto", st)
	}
	var sawVeto bool
	for _, e := range log.Events().Recent(0) {
		if e.Kind == obs.EventGuardVeto && e.Level == "rate-limit" {
			sawVeto = true
		}
	}
	if !sawVeto {
		t.Fatalf("no guard-veto event with rate-limit reason")
	}
	// The limit counts only the commits of the last rateWindow ticks.
	for i := 1; i < rateWindow; i++ {
		w.BeginTick(10 + float64(10*i))
	}
	if ok, _ := w.Allow(70, core.ActionShedClass, "tpcw", "", "c"); ok {
		t.Fatalf("rate limit lapsed before rateWindow ticks passed")
	}
	w.BeginTick(80)
	if ok, _ := w.Allow(80, core.ActionShedClass, "tpcw", "", "c"); !ok {
		t.Fatalf("rate limit outlived rateWindow ticks")
	}
}

func TestWatchdogOscillationVeto(t *testing.T) {
	w := New(Config{}, nil)
	w.BeginTick(10)
	w.Committed(core.Action{Kind: core.ActionReschedule, App: "tpcw", Class: "Browse"}, nil)
	w.BeginTick(20)
	if ok, _ := w.Allow(20, core.ActionReschedule, "tpcw", "", "Browse"); ok {
		t.Fatalf("repeat move inside oscillation window allowed")
	}
	if ok, _ := w.Allow(20, core.ActionReschedule, "tpcw", "", "Search"); !ok {
		t.Fatalf("move of a different class vetoed")
	}
	// Re-shedding a just-readmitted class flip-flops admission.
	w.Committed(core.Action{Kind: core.ActionReadmitClass, App: "tpcw", Class: "Order"}, nil)
	if ok, _ := w.Allow(20, core.ActionShedClass, "tpcw", "", "Order"); ok {
		t.Fatalf("re-shed of readmitted class allowed")
	}
	// Once oscillationWindow ticks separate it from the first move, the
	// class may move again.
	for i := 2; i <= oscillationWindow; i++ {
		w.BeginTick(float64(10 * (i + 1)))
	}
	if ok, _ := w.Allow(90, core.ActionReschedule, "tpcw", "", "Browse"); !ok {
		t.Fatalf("move vetoed %d ticks after the last one", oscillationWindow)
	}
}

func TestWatchdogStormCircuit(t *testing.T) {
	log := obs.NewRecorder(256)
	w := New(Config{EvaluateAfter: 1, BaselineWindow: 1, Tolerance: 0.1}, log)
	now := 0.0
	trip := func() {
		now += 10
		w.BeginTick(now)
		feed(w, now, "tpcw", 0.5, 100, 1000, true, 0)
		w.Committed(core.Action{Kind: core.ActionReschedule, App: "tpcw"}, func() error { return nil })
		now += 10
		w.BeginTick(now)
		feed(w, now, "tpcw", 5.0, 10, 100, false, 0)
		// Restore the baseline so the next round regresses again.
		now += 10
		w.BeginTick(now)
		feed(w, now, "tpcw", 0.5, 100, 1000, true, 0)
	}
	for i := 1; i < stormTrips; i++ {
		trip()
		if w.Posture("tpcw") != core.GuardNormal {
			t.Fatalf("circuit open after %d suspect actions", i)
		}
	}
	trip()
	if st := w.Stats(); st.Trips != 1 || st.Suspects != stormTrips {
		t.Fatalf("stats = %+v, want 1 trip after %d suspects", st, stormTrips)
	}
	if w.Posture("tpcw") != core.GuardFallback {
		t.Fatalf("first posture read after trip not GuardFallback")
	}
	if w.Posture("tpcw") != core.GuardSuspend {
		t.Fatalf("second posture read not GuardSuspend")
	}
	// The trip landed one tick before the end of trip(); the circuit
	// stays open for suspendFor ticks from there.
	for i := 2; i < suspendFor; i++ {
		now += 10
		w.BeginTick(now)
	}
	if w.Posture("tpcw") != core.GuardSuspend {
		t.Fatalf("circuit closed before suspendFor ticks passed")
	}
	now += 10
	w.BeginTick(now)
	if w.Posture("tpcw") != core.GuardNormal {
		t.Fatalf("circuit did not close after suspension lapsed")
	}
	var sawTrip bool
	for _, e := range log.Events().Recent(0) {
		if e.Kind == obs.EventGuardTripped {
			sawTrip = true
		}
	}
	if !sawTrip {
		t.Fatalf("no guard-tripped event")
	}
}

func TestWatchdogUndoFailureStillCoolsDown(t *testing.T) {
	w := New(Config{EvaluateAfter: 1, BaselineWindow: 1, Tolerance: 0.1}, nil)
	now := 10.0
	w.BeginTick(now)
	feed(w, now, "tpcw", 0.5, 100, 1000, true, 0)
	w.Committed(core.Action{Kind: core.ActionShedClass, App: "tpcw", Class: "c"},
		func() error { return errors.New("class no longer shed") })
	now += 10
	w.BeginTick(now)
	feed(w, now, "tpcw", 5.0, 10, 100, false, 0)
	st := w.Stats()
	if st.Suspects != 1 || st.Reverts != 0 {
		t.Fatalf("stats = %+v, want 1 suspect and 0 reverts", st)
	}
	// The kind stays cooled down for cooldownAfterRevert ticks after the
	// verdict, then may act again.
	for i := 0; i < cooldownAfterRevert; i++ {
		if ok, _ := w.Allow(now, core.ActionShedClass, "tpcw", "", "c"); ok {
			t.Fatalf("kind not cooled down %d tick(s) after failed rollback", i)
		}
		now += 10
		w.BeginTick(now)
	}
	if ok, _ := w.Allow(now, core.ActionShedClass, "tpcw", "", "c"); !ok {
		t.Fatalf("cooldown outlived cooldownAfterRevert ticks")
	}
}

func TestWatchdogIgnoresOtherAppsIntervals(t *testing.T) {
	w := New(Config{EvaluateAfter: 1, BaselineWindow: 1, Tolerance: 0.1}, nil)
	now := 10.0
	w.BeginTick(now)
	feed(w, now, "tpcw", 0.5, 100, 1000, true, 0)
	undone := false
	w.Committed(core.Action{Kind: core.ActionReschedule, App: "tpcw"},
		func() error { undone = true; return nil })
	// A different app regressing must not condemn tpcw's action.
	now += 10
	w.BeginTick(now)
	feed(w, now, "rubis", 9.0, 1, 10, false, 0)
	if undone {
		t.Fatalf("action judged against another app's intervals")
	}
	feed(w, now, "tpcw", 0.5, 100, 1000, true, 0)
	if undone {
		t.Fatalf("steady fitness rolled back")
	}
}
