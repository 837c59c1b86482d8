package guard

import (
	"sync"
	"sync/atomic"
	"testing"

	"outlierlb/internal/core"
)

// TestWatchdogStatsConcurrentWithRollback drives a full controller-tick
// lifecycle — commit, fitness regression, judge, rollback — on one
// goroutine (standing in for the simulation loop) while reader
// goroutines hammer Stats, the one watchdog surface documented safe for
// concurrent use (the debug endpoints read it mid-run). Under -race
// this proves the rollback path shares nothing with readers beyond the
// atomic counters: undo closures mutate state owned by the simulation
// goroutine only.
func TestWatchdogStatsConcurrentWithRollback(t *testing.T) {
	w := New(Config{EvaluateAfter: 1, BaselineWindow: 2, Tolerance: 0.1}, nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := w.Stats()
				if st.Reverts > st.Suspects {
					t.Error("reverts exceed suspects") // impossible; keeps st used
					return
				}
			}
		}()
	}

	// Simulation goroutine: placement is single-owner state the undo
	// closures mutate during rollback; -race verifies the readers above
	// never touch it.
	placement := map[string]string{"Browse": "db1"}
	var undone atomic.Int64
	now := 0.0
	tick := func(p99, tput float64, queries int64, met bool) {
		now += 10
		w.BeginTick(now)
		feed(w, now, "tpcw", p99, tput, queries, met, 0)
	}
	// Each cycle: a healthy baseline, one committed move, then two
	// terrible intervals so the judgment (due one tick after commit)
	// sees a clear regression and rolls the move back while the readers
	// spin. The baseline outlasts the oscillation window the rollback
	// opens, so every cycle's move is allowed.
	for cycle := 0; cycle < 50; cycle++ {
		for i := 0; i < oscillationWindow; i++ {
			tick(0.5, 100, 1000, true)
		}
		now += 10
		w.BeginTick(now)
		if ok, _ := w.Allow(now, core.ActionReschedule, "tpcw", "db2", "Browse"); ok {
			placement["Browse"] = "db2"
			w.Committed(core.Action{Time: now, Kind: core.ActionReschedule,
				App: "tpcw", Server: "db2", Class: "Browse"},
				func() error {
					placement["Browse"] = "db1"
					undone.Add(1)
					return nil
				})
		}
		feed(w, now, "tpcw", 0.5, 100, 1000, true, 0)
		for i := 0; i < 2; i++ {
			tick(5.0, 10, 100, false)
		}
	}
	close(stop)
	wg.Wait()

	st := w.Stats()
	if st.Actions != 50 || st.Vetoes != 0 {
		t.Fatalf("guardrails vetoed moves the test meant to judge (stats %+v)", st)
	}
	if st.Reverts == 0 {
		t.Fatalf("no rollbacks happened; the race test exercised nothing (stats %+v)", st)
	}
	if undone.Load() != st.Reverts {
		t.Fatalf("undo ran %d times but stats count %d reverts", undone.Load(), st.Reverts)
	}
	if placement["Browse"] != "db1" && placement["Browse"] != "db2" {
		t.Fatalf("placement corrupted: %v", placement)
	}
}
