package wltemporal

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"outlierlb/internal/bufferpool"
	"outlierlb/internal/cluster"
	"outlierlb/internal/engine"
	"outlierlb/internal/metrics"
	"outlierlb/internal/server"
	"outlierlb/internal/sim"
	"outlierlb/internal/sla"
	"outlierlb/internal/storage"
	"outlierlb/internal/trace"
	"outlierlb/internal/workload"
)

var (
	browse = metrics.ClassID{App: "shop", Class: "Browse"}
	search = metrics.ClassID{App: "shop", Class: "Search"}
)

func testSetup(t testing.TB, seed uint64) (*sim.Engine, *cluster.Scheduler) {
	t.Helper()
	eng := sim.NewEngine(seed)
	srv := server.MustNew(server.Config{Name: "s1", Cores: 4, MemoryPages: 10000,
		Disk: storage.Params{Seek: 0.002, PerPage: 0.0001}})
	dbe := engine.MustNew(engine.Config{Name: "e1", Pool: bufferpool.Config{Capacity: 5000}}, srv)
	app := &cluster.Application{
		Name: "shop",
		SLA:  sla.Default(),
		Classes: []engine.ClassSpec{
			{ID: browse, CPUPerQuery: 0.004, PagesPerQuery: 3,
				Pattern: &trace.SequentialScan{Span: 500}},
			{ID: search, CPUPerQuery: 0.008, PagesPerQuery: 6,
				Pattern: &trace.SequentialScan{Span: 900}},
		},
	}
	sched, err := cluster.NewScheduler(app)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.AddReplica(cluster.NewReplica(dbe, srv)); err != nil {
		t.Fatal(err)
	}
	return eng, sched
}

func testCohorts() []Cohort {
	return []Cohort{
		{
			Name: "oltp",
			Mix:  []workload.MixEntry{{ID: browse, Weight: 3}, {ID: search, Weight: 1}},
			Rate: Diurnal(40, 20, 60),
		},
		{
			Name:    "crowd",
			Mix:     []workload.MixEntry{{ID: search, Weight: 1}},
			Rate:    FlashCrowd(80, 20, 5, 1.5),
			Process: &MMPP{Burst: 3, CalmMean: 4, BurstMean: 2},
			StartAt: 10,
			StopAt:  50,
		},
	}
}

// recordRun drives testCohorts against a fresh testbed for 60s of
// virtual time and returns the recorded trace plus the driver's counts.
func recordRun(t testing.TB, seed uint64) (*Trace, int64, int64) {
	t.Helper()
	eng, sched := testSetup(t, seed)
	rec := NewRecorder()
	rec.Register("oltp")
	rec.Register("crowd")
	d, err := NewDriver(eng, sched, testCohorts(), Config{OnArrival: rec.Observe})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	eng.RunUntil(60)
	d.Stop()
	if len(d.Errors()) != 0 {
		t.Fatalf("driver errors: %v", d.Errors()[0])
	}
	return rec.Trace(), d.Interactions(), d.Shed()
}

func TestDriverProducesLoad(t *testing.T) {
	tr, interactions, shed := recordRun(t, 1)
	if interactions == 0 {
		t.Fatal("driver submitted nothing")
	}
	if int64(len(tr.Arrivals)) != interactions+shed {
		t.Fatalf("recorded %d arrivals, driver reports %d accepted + %d shed",
			len(tr.Arrivals), interactions, shed)
	}
	if len(tr.Cohorts) != 2 {
		t.Fatalf("cohort dictionary = %v, want [oltp crowd]", tr.Cohorts)
	}
	// Diurnal(40,20,60) averages 40 qps over its 60s period; expect the
	// oltp cohort in the right ballpark.
	var oltp, crowd int
	for _, a := range tr.Arrivals {
		switch tr.Cohorts[a.Cohort] {
		case "oltp":
			oltp++
		case "crowd":
			crowd++
		}
	}
	if oltp < 1200 || oltp > 3600 {
		t.Errorf("oltp arrivals = %d, far from 40 qps × 60 s", oltp)
	}
	if crowd == 0 {
		t.Error("flash crowd cohort never arrived")
	}
	// Cohort windows hold by construction.
	for i, a := range tr.Arrivals {
		if tr.Cohorts[a.Cohort] == "crowd" && (a.T < 10 || a.T >= 50) {
			t.Fatalf("arrival %d: crowd cohort fired at t=%v outside [10,50)", i, a.T)
		}
	}
}

// TestDriverDeterminism is the property test: the same seed produces a
// byte-identical trace — interleaved cohorts, MMPP phase draws and all —
// and different seeds do not.
func TestDriverDeterminism(t *testing.T) {
	encode := func(tr *Trace) []byte {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, seed := range []uint64{1, 2, 3} {
		a := encode(recordTrace(t, seed))
		b := encode(recordTrace(t, seed))
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: two runs produced different traces", seed)
		}
	}
	if bytes.Equal(encode(recordTrace(t, 1)), encode(recordTrace(t, 2))) {
		t.Fatal("seeds 1 and 2 produced identical traces")
	}
}

func recordTrace(t testing.TB, seed uint64) *Trace {
	t.Helper()
	tr, _, _ := recordRun(t, seed)
	return tr
}

// TestTraceRoundTrip writes a recorded trace and reads it back,
// expecting a deep-equal structure and byte-identical re-encoding.
func TestTraceRoundTrip(t *testing.T) {
	tr := recordTrace(t, 7)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	encoded := append([]byte(nil), buf.Bytes()...)
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("decoded trace differs from original")
	}
	var again bytes.Buffer
	if err := got.Write(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded, again.Bytes()) {
		t.Fatal("re-encoding a decoded trace changed bytes")
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	tr := recordTrace(t, 9)
	path := t.TempDir() + "/run.wlt2"
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("file round trip changed the trace")
	}
}

// TestReadTraceRejectsMangled is the strict-framing table: every way a
// file can be wrong must be a loud error, never a silent partial read.
func TestReadTraceRejectsMangled(t *testing.T) {
	tr := recordTrace(t, 11)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	mangle := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", good[:3]},
		{"bad magic", mangle(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"bad version", mangle(func(b []byte) []byte { b[4] = '1'; return b })},
		{"bad terminator", mangle(func(b []byte) []byte { b[5] = ' '; return b })},
		{"truncated dictionary", good[:8]},
		{"truncated mid-arrival", good[:len(good)-3]},
		{"truncated last byte", good[:len(good)-1]},
		{"trailing byte", mangle(func(b []byte) []byte { return append(b, 0) })},
		{"trailing run", mangle(func(b []byte) []byte { return append(b, good...) })},
	}
	for _, tc := range cases {
		if _, err := ReadTrace(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// badTraces are well-framed traces carrying values ReadTrace rejects,
// keyed by what is wrong with them.
func badTraces() map[string]Trace {
	one := func(cohort string, arrivals ...Arrival) Trace {
		return Trace{Cohorts: []string{cohort}, Classes: []metrics.ClassID{browse}, Arrivals: arrivals}
	}
	return map[string]Trace{
		"cohort index out of range":     one("a", Arrival{T: 1, Cohort: 5}),
		"class index out of range":      one("a", Arrival{T: 1, Class: 2}),
		"decreasing times":              one("a", Arrival{T: 2}, Arrival{T: 1}),
		"second run restarts the clock": one("a", Arrival{T: 519.96}, Arrival{T: 0.0073}),
		"NaN time":                      one("a", Arrival{T: math.NaN()}),
		"negative time":                 one("a", Arrival{T: -1}),
		"infinite time":                 one("a", Arrival{T: math.Inf(1)}),
		"over-long cohort name":         one(strings.Repeat("x", maxNameLen+1), Arrival{T: 1}),
	}
}

func TestReadTraceRejectsBadValues(t *testing.T) {
	for name, tr := range badTraces() {
		if _, err := ReadTrace(bytes.NewReader(tr.encode())); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// An equal-time tie is legal (FIFO order is meaningful).
	tie := Trace{Cohorts: []string{"a"}, Classes: []metrics.ClassID{browse},
		Arrivals: []Arrival{{T: 1, Cohort: 0, Class: 0}, {T: 1, Cohort: 0, Class: 0}}}
	var buf bytes.Buffer
	if err := tie.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf); err != nil {
		t.Errorf("equal-time arrivals rejected: %v", err)
	}
}

// TestTraceWriteRejectsBadValues holds the writer to the reader's
// rules: every trace ReadTrace would reject is refused before a byte is
// written or a file is created, so a bad recording fails at record time
// instead of at replay.
func TestTraceWriteRejectsBadValues(t *testing.T) {
	for name, tr := range badTraces() {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err == nil || buf.Len() != 0 {
			t.Errorf("%s: Write returned %v after %d bytes", name, err, buf.Len())
		}
		path := filepath.Join(t.TempDir(), "bad.trace")
		if err := tr.WriteFile(path); err == nil {
			t.Errorf("%s: WriteFile accepted", name)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: WriteFile left %s behind (stat: %v)", name, path, err)
		}
	}
}

// TestReplayIdentity records a driver run, replays the trace into an
// identically-seeded fresh testbed, and expects the replay to submit
// byte-identical (time, cohort, class) tuples — the package-level half
// of the record→replay acceptance criterion.
func TestReplayIdentity(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		tr, interactions, shed := recordRun(t, seed)

		eng, sched := testSetup(t, seed)
		re := NewRecorder()
		for _, c := range tr.Cohorts {
			re.Register(c)
		}
		rep, err := NewReplayer(eng, tr, func(cohort string, now float64, class metrics.ClassID) error {
			re.Observe(cohort, now, class)
			_, err := sched.Submit(now, class)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		rep.Start()
		eng.RunUntil(60)
		if len(rep.Errors()) != 0 {
			t.Fatalf("seed %d: replay errors: %v", seed, rep.Errors()[0])
		}
		if rep.Interactions() != interactions || rep.Shed() != shed {
			t.Fatalf("seed %d: replay accepted %d/shed %d, recorded run accepted %d/shed %d",
				seed, rep.Interactions(), rep.Shed(), interactions, shed)
		}
		var orig, replayed bytes.Buffer
		if err := tr.Write(&orig); err != nil {
			t.Fatal(err)
		}
		if err := re.Trace().Write(&replayed); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(orig.Bytes(), replayed.Bytes()) {
			t.Fatalf("seed %d: replayed arrival stream differs from recording", seed)
		}
	}
}

// TestReplayerForkParity checks the RNG contract directly: after
// constructing a replayer for an n-cohort trace, the engine's main
// stream is in the same state as after constructing the n-cohort
// driver.
func TestReplayerForkParity(t *testing.T) {
	tr := recordTrace(t, 5)

	engA, schedA := testSetup(t, 42)
	if _, err := NewDriver(engA, schedA, testCohorts(), Config{}); err != nil {
		t.Fatal(err)
	}
	engB, _ := testSetup(t, 42)
	if _, err := NewReplayer(engB, tr, func(string, float64, metrics.ClassID) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if a, b := engA.RNG().Float64(), engB.RNG().Float64(); a != b {
			t.Fatalf("draw %d after construction: driver stream %v, replayer stream %v", i, a, b)
		}
	}
}

func TestDriverValidation(t *testing.T) {
	eng, sched := testSetup(t, 1)
	ok := testCohorts()
	cases := []struct {
		name    string
		eng     *sim.Engine
		sched   *cluster.Scheduler
		cohorts []Cohort
	}{
		{"nil engine", nil, sched, ok},
		{"nil scheduler", eng, nil, ok},
		{"no cohorts", eng, sched, nil},
		{"unnamed cohort", eng, sched, []Cohort{{Mix: ok[0].Mix, Rate: Flat(1)}}},
		{"duplicate names", eng, sched, []Cohort{
			{Name: "a", Mix: ok[0].Mix, Rate: Flat(1)},
			{Name: "a", Mix: ok[0].Mix, Rate: Flat(1)}}},
		{"nil rate", eng, sched, []Cohort{{Name: "a", Mix: ok[0].Mix}}},
		{"empty mix", eng, sched, []Cohort{{Name: "a", Rate: Flat(1)}}},
		{"zero-weight mix", eng, sched, []Cohort{
			{Name: "a", Mix: []workload.MixEntry{{ID: browse, Weight: 0}}, Rate: Flat(1)}}},
		{"stop before start", eng, sched, []Cohort{
			{Name: "a", Mix: ok[0].Mix, Rate: Flat(1), StartAt: 10, StopAt: 5}}},
	}
	for _, tc := range cases {
		if _, err := NewDriver(tc.eng, tc.sched, tc.cohorts, Config{}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := NewReplayer(nil, &Trace{}, nil); err == nil {
		t.Error("nil replayer args accepted")
	}
}

func TestShapes(t *testing.T) {
	d := Diurnal(40, 20, 60)
	if got := d(0); got != 20 {
		t.Errorf("Diurnal trough at t=0 = %v, want 20", got)
	}
	if got := d(30); math.Abs(got-60) > 1e-9 {
		t.Errorf("Diurnal peak at half period = %v, want 60", got)
	}
	if got := Diurnal(5, 20, 60)(0); got != 0 {
		t.Errorf("Diurnal went negative: %v", got)
	}

	r := Ramp(10, 50, 100, 120)
	for _, tc := range []struct{ t, want float64 }{
		{99, 10}, {100, 10}, {110, 30}, {120, 50}, {121, 50},
	} {
		if got := r(tc.t); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Ramp(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	if got := Ramp(10, 50, 100, 100)(100); got != 50 {
		t.Errorf("degenerate Ramp at t0 = %v, want step to 50", got)
	}

	s := Spike(25, 100, 200)
	for _, tc := range []struct{ t, want float64 }{
		{99.999999, 0}, {100, 25}, {199.999999, 25}, {200, 0},
	} {
		if got := s(tc.t); got != tc.want {
			t.Errorf("Spike(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	if Spike(25, 100, 100)(100) != 0 {
		t.Error("degenerate Spike fired")
	}

	f := FlashCrowd(80, 20, 5, 1.5)
	if f(19.999999) != 0 {
		t.Error("FlashCrowd fired before onset")
	}
	if got := f(22.5); math.Abs(got-40) > 1e-9 {
		t.Errorf("FlashCrowd mid-ramp = %v, want 40", got)
	}
	if got := f(25); math.Abs(got-80) > 1e-9 {
		t.Errorf("FlashCrowd peak = %v, want 80", got)
	}
	if pre, post := f(24.9999999), f(25.0000001); math.Abs(pre-post) > 0.01 {
		t.Errorf("FlashCrowd discontinuous at peak: %v vs %v", pre, post)
	}
	if f(1000) >= f(100) || f(100) >= f(30) {
		t.Error("FlashCrowd decay not monotone")
	}

	sum := Add(Flat(10), Spike(5, 0, 100))
	if got := sum(50); got != 15 {
		t.Errorf("Add = %v, want 15", got)
	}
	if got := Scale(Flat(10), 2.5)(0); got != 25 {
		t.Errorf("Scale = %v, want 25", got)
	}
	if got := Scale(Flat(10), -1)(0); got != 0 {
		t.Errorf("negative Scale = %v, want clamp to 0", got)
	}

	c := Clients(Flat(30), 2)
	if got := c(0); got != 15 {
		t.Errorf("Clients = %d, want 15", got)
	}
}

func TestPoissonProcess(t *testing.T) {
	rng := sim.NewRNG(1)
	var p Poisson
	if d, arr := p.Next(rng, 0, 0); arr || d != pollEvery {
		t.Fatalf("idle Poisson: delay %v arrival %v, want poll %v", d, arr, pollEvery)
	}
	// At rate λ the mean gap is 1/λ; average many draws.
	const lambda, n = 50.0, 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		d, arr := p.Next(rng, 0, lambda)
		if !arr {
			t.Fatal("Poisson at positive rate returned a poll")
		}
		sum += d
	}
	if mean := sum / n; mean < 0.018 || mean > 0.022 {
		t.Fatalf("Poisson mean gap = %v, want ≈ %v", mean, 1/lambda)
	}
}

func TestMMPPProcess(t *testing.T) {
	// Determinism: same seed, same state trajectory.
	runOnce := func(seed uint64) []float64 {
		rng := sim.NewRNG(seed)
		m := &MMPP{Burst: 3, CalmMean: 4, BurstMean: 2}
		now := 0.0
		var gaps []float64
		for i := 0; i < 500; i++ {
			d, _ := m.Next(rng, now, 20)
			now += d
			gaps = append(gaps, d)
		}
		return gaps
	}
	if !reflect.DeepEqual(runOnce(3), runOnce(3)) {
		t.Fatal("MMPP not deterministic under a fixed seed")
	}
	// Zero rate polls without consuming arrivals.
	m := &MMPP{}
	rng := sim.NewRNG(1)
	if _, arr := m.Next(rng, 0, 0); arr {
		t.Fatal("MMPP at zero rate produced an arrival")
	}
	// Burstiness: the variance of per-second arrival counts should
	// exceed Poisson's (index of dispersion > 1) for a strong burst.
	counts := map[int]int{}
	now := 0.0
	mb := &MMPP{Burst: 8, CalmMean: 4, BurstMean: 2}
	rngB := sim.NewRNG(5)
	for now < 400 {
		d, arr := mb.Next(rngB, now, 10)
		now += d
		if arr {
			counts[int(now)]++
		}
	}
	var sum, sumsq float64
	for s := 0; s < 400; s++ {
		c := float64(counts[s])
		sum += c
		sumsq += c * c
	}
	mean := sum / 400
	variance := sumsq/400 - mean*mean
	if variance <= mean {
		t.Fatalf("MMPP index of dispersion %.2f ≤ 1: arrivals not bursty", variance/mean)
	}
}
