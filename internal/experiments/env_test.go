package experiments

import (
	"io"
	"sync"
	"testing"

	"outlierlb/internal/wltemporal"
)

// TestEnvIsolation runs fig4 seed 1 under a full-sampling tracer and,
// at the same time, fig4 seed 2 under its own tracer plus an arrival
// recorder. Both must hit their goldens, and each tracer and the
// recorder must hold only its own run's traces and arrivals; under
// -race this proves the runs share no mutable state. It drives both
// cores itself, so it is not marked parallel.
func TestEnvIsolation(t *testing.T) {
	rec := wltemporal.NewRecorder()
	envs := [2]Env{traced(Env{}, 4096), traced(Env{OnArrival: rec.Observe}, 4096)}
	var results [2]*Figure4Result
	var wg sync.WaitGroup
	for i := range envs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = envs[i].Figure4(uint64(i + 1))
		}()
	}
	wg.Wait()

	// The span goldens pin each tracer's full contents.
	for i, env := range envs {
		checkGolden(t, "fig4", uint64(i+1), mustJSON(t, results[i]), mustJSON(t, env.Tracer.Recent(0)))
	}
	// Every query of seed 2 passed the recorder once, and no query of
	// seed 1 did: one arrival per query its tracer saw start.
	arrivals := rec.Trace().Arrivals
	if got, want := uint64(len(arrivals)), envs[1].Tracer.Stats().Started; got != want || got == 0 {
		t.Errorf("recorder holds %d arrivals, seed 2 started %d queries", got, want)
	}
	// One run's arrivals form one non-decreasing stream, which the strict
	// trace writer accepts; a stream mixed from two runs would go
	// backwards in time.
	if err := rec.Trace().Write(io.Discard); err != nil {
		t.Errorf("recorded stream is not one run's: %v", err)
	}
}
