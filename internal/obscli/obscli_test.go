package obscli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"outlierlb/internal/experiments"
	"outlierlb/internal/metrics"
	"outlierlb/internal/wltemporal"
)

// TestStartEnv checks the Env each flag combination builds: a tracer
// only for -trace.sample > 0 or -run.out, an observer exactly when
// there is a recorder (never a typed-nil one), no -wl.* seam, and the
// zero Env — the plain run — when every flag is off.
func TestStartEnv(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		opts             Options
		tracer, recorder bool
	}{
		{Options{}, false, false},
		{Options{SigPath: filepath.Join(dir, "sig.json")}, false, false},
		{Options{TraceSample: 0.5}, true, false},
		{Options{Verbose: true}, false, true},
		{Options{Addr: "127.0.0.1:0"}, false, true},
		{Options{RunOut: filepath.Join(dir, "RUN.json")}, true, true},
	} {
		s, err := Start(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		env := s.Env
		if (env.Tracer != nil) != tc.tracer || (s.Recorder != nil) != tc.recorder ||
			(env.Observer != nil) != tc.recorder || (env.OnTestbed != nil) != (tc.opts != Options{}) ||
			env.OnArrival != nil || env.Replay != nil {
			t.Errorf("%+v: built %+v (recorder %v)", tc.opts, env, s.Recorder != nil)
		}
	}
}

// wlFlags builds the flag pair without touching the process flag set.
func wlFlags(record, replay string) *WlFlags {
	return &WlFlags{record: &record, replay: &replay}
}

// TestWlFlagsApply covers -wl.* validation: record and replay exclude
// each other, a bad replay file fails in Apply (before any run), and a
// good file or a record request fills exactly its own Env seam.
func TestWlFlagsApply(t *testing.T) {
	dir := t.TempDir()
	good, garbage, out := filepath.Join(dir, "good"), filepath.Join(dir, "garbage"), filepath.Join(dir, "out")
	rec := wltemporal.NewRecorder()
	rec.Observe("shop", 1, metrics.ClassID{App: "shop", Class: "Browse"})
	if err := rec.Trace().WriteFile(good); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(garbage, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		flags          *WlFlags
		wantErr        string
		replay, record bool
	}{
		{wlFlags("", ""), "", false, false},
		{wlFlags(out, good), "mutually exclusive", false, false},
		{wlFlags("", filepath.Join(dir, "absent")), "no such file", false, false},
		{wlFlags("", garbage), "not a workload trace", false, false},
		{wlFlags("", good), "", true, false},
		{wlFlags(out, ""), "", false, true},
	} {
		var env experiments.Env
		err := tc.flags.Apply(&env)
		if (err == nil) != (tc.wantErr == "") || (err != nil && !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("-wl.record %q -wl.replay %q: error %v, want %q", *tc.flags.record, *tc.flags.replay, err, tc.wantErr)
		}
		if (env.Replay != nil) != tc.replay || (env.OnArrival != nil) != tc.record {
			t.Errorf("-wl.record %q -wl.replay %q: filled %+v", *tc.flags.record, *tc.flags.replay, env)
		}
	}
}
