package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"outlierlb/internal/core"
	"outlierlb/internal/sla"
)

// shortRun is long enough to leave warm-up and close measured intervals,
// and short enough to keep these tests to seconds.
const shortRun = 320.0

func TestMetricNameValidation(t *testing.T) {
	for _, ok := range []string{"wall_s", "mrc.compute_s", "bufferpool.hit_ns", "a", "9lives", "x-y.z_1",
		strings.Repeat("a", 64)} {
		if !nameRE.MatchString(ok) {
			t.Errorf("name %q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "-lead", "has space", "slash/name", "ünï", "a:b",
		strings.Repeat("a", 65)} {
		if nameRE.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}
	ms := []named{{"wall_s", "s", 1}, {"wall_s", "s", 2}}
	if err := checkNames(ms); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate name: got %v", err)
	}
	if err := checkNames([]named{{"bad name", "s", 1}}); err == nil {
		t.Error("malformed name accepted")
	}
	if err := checkNames([]named{{"wall_s", "seconds per thing", 1}}); err == nil {
		t.Error("malformed unit accepted")
	}
}

// benchmarkJSON mirrors the fields of ../BENCHMARK.json the program must
// agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the program's workloads and
// its metrics, names and units in order, identical to BENCHMARK.json.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Split(workloadNames(), ", "); !reflect.DeepEqual(got, names) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", got, names)
	}

	o := tpcwOrderingROWA(1, shortRun)
	its := []iteration{
		{wall: 1, alloc: 1 << 20, out: o},
		{wall: 1.1, alloc: 1 << 20, out: o, traced: true, samples: []sample{{stack: []string{"runtime.gcBgMarkWorker"}, seconds: 0.01}}},
	}
	micros := []microResult{
		{"bufferpool.hit_ns", "ns", 1}, {"bufferpool.miss_evict_ns", "ns", 1}, {"bufferpool.write_ns", "ns", 1},
		{"engine.execute_read_ns", "ns", 1}, {"cluster.submit_ns", "ns", 1}, {"trace.zipf_draw_ns", "ns", 1},
		{"mrc.compute_window_ms", "ms", 1},
	}
	for _, tc := range []struct {
		mode     string
		got      []named
		declared []struct{ Name, Unit string }
	}{
		{"end_to_end", endToEndMetrics(its, 0.01, true), b.EndToEnd},
		{"per_layer", layerMetrics(its, micros), b.PerLayer},
	} {
		if err := checkNames(tc.got); err != nil {
			t.Errorf("%s: %v", tc.mode, err)
		}
		if len(tc.got) != len(tc.declared) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json declares %d", tc.mode, len(tc.got), len(tc.declared))
			continue
		}
		for i, m := range tc.got {
			if d := tc.declared[i]; m.name != d.Name || m.unit != d.Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", tc.mode, i, m.name, m.unit, d.Name, d.Unit)
			}
		}
	}
}

func TestAttribution(t *testing.T) {
	const (
		access  = repoPrefix + "bufferpool.(*Pool).Access"
		execute = repoPrefix + "engine.(*Engine).Execute"
		submit  = repoPrefix + "cluster.(*Scheduler).Submit"
		compute = repoPrefix + "mrc.Compute"
	)
	samples := []sample{
		// Map and list time inside the pool is the pool's.
		{stack: []string{"runtime.mapaccess2_fast64", "container/list.(*List).MoveToFront",
			repoPrefix + "bufferpool.(*partition).touch", access, execute, submit, "main.main"}, seconds: 1},
		// A subpackage belongs to its parent layer; an entry function
		// recurring on the stack is counted once.
		{stack: []string{"math.Log", repoPrefix + "workload/tpcw.New.func1", compute, "x.y", compute}, seconds: 2},
		// Generic instantiations may carry '/' and '.' in brackets.
		{stack: []string{repoPrefix + "simcore.push[go.shape.*outlierlb/internal/sim.Event]"}, seconds: 4},
		// Repo packages outside the named layers are "other".
		{stack: []string{repoPrefix + "sla.(*Tracker).Observe", submit}, seconds: 8},
		// No repo frame: garbage collection, or unattributed.
		{stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, seconds: 16},
		{stack: []string{"runtime.futex", "runtime.mcall"}, seconds: 32},
	}
	l := attribute(samples)
	wantSelf := map[string]float64{"bufferpool": 1, "workload": 2, "simcore": 4, "other": 8}
	if !reflect.DeepEqual(l.self, wantSelf) {
		t.Errorf("self = %v, want %v", l.self, wantSelf)
	}
	wantEntry := map[string]float64{
		"bufferpool.access_s": 1, "engine.execute_s": 1, "cluster.submit_s": 9, "mrc.compute_s": 2,
	}
	if !reflect.DeepEqual(l.entry, wantEntry) {
		t.Errorf("entry = %v, want %v", l.entry, wantEntry)
	}
	if l.gc != 16 || l.unattributed != 32 || l.total != 63 {
		t.Errorf("gc %v unattributed %v total %v, want 16 32 63", l.gc, l.unattributed, l.total)
	}
	if got, want := l.attributedFrac(), 31.0/63; math.Abs(got-want) > 1e-12 {
		t.Errorf("attributedFrac = %v, want %v", got, want)
	}
}

// protobuf field helpers for a hand-built profile.
func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbField(b []byte, num int, payload []byte) []byte {
	b = pbVarint(b, uint64(num)<<3|2)
	b = pbVarint(b, uint64(len(payload)))
	return append(b, payload...)
}

func pbUint(b []byte, num int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(num)<<3), v)
}

func TestDecodeCPUProfile(t *testing.T) {
	var p []byte
	// Strings: 0 "", 1 samples, 2 count, 3 cpu, 4 nanoseconds, 5 leaf, 6 inlined-into, 7 root.
	vt := func(typ, unit uint64) []byte { return pbUint(pbUint(nil, 1, typ), 2, unit) }
	p = pbField(p, 1, vt(1, 2))
	p = pbField(p, 1, vt(3, 4))
	// One sample: leaf location 1 (two lines: leaf inlined into its
	// caller), then location 2; packed ids, unpacked values.
	s := pbField(nil, 1, pbVarint(pbVarint(nil, 1), 2))
	s = pbUint(pbUint(s, 2, 3), 2, 30_000_000)
	p = pbField(p, 2, s)
	line := func(fn uint64) []byte { return pbUint(nil, 1, fn) }
	p = pbField(p, 4, pbField(pbField(pbUint(nil, 1, 1), 4, line(10)), 4, line(11)))
	p = pbField(p, 4, pbField(pbUint(nil, 1, 2), 4, line(12)))
	for id, name := range map[uint64]uint64{10: 5, 11: 6, 12: 7} {
		p = pbField(p, 5, pbUint(pbUint(nil, 1, id), 2, name))
	}
	for _, str := range []string{"", "samples", "count", "cpu", "nanoseconds", "leaf", "inlined-into", "root"} {
		p = pbField(p, 6, []byte(str))
	}
	got, err := decodeCPUProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []sample{{stack: []string{"leaf", "inlined-into", "root"}, seconds: 0.03}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %+v, want %+v", got, want)
	}
	for n := 1; n < len(p); n += 7 {
		// The string table comes last, so every prefix is either cut
		// inside a field or lacks a string the sample needs.
		if _, err := decodeCPUProfile(p[:n]); err == nil {
			t.Errorf("truncated profile (%d of %d bytes) accepted", n, len(p))
		}
	}
}

// TestDecodeRuntimeProfile decodes a profile written by runtime/pprof
// around a busy loop and finds this test on the sampled stacks.
func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	x := uint64(1)
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink += x
	pprof.StopCPUProfile()
	samples, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			found = found || fn == "outlierlb/perfbench.TestDecodeRuntimeProfile"
		}
	}
	if len(samples) == 0 || !found {
		t.Errorf("%d samples, this test on a stack: %t", len(samples), found)
	}
}

func TestOutputChecks(t *testing.T) {
	ref := rubisScanEvict(1, shortRun)
	again := rubisScanEvict(1, shortRun)
	if err := check(ref, nil); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	if err := check(again, ref); err != nil {
		t.Fatalf("same-seed rerun rejected: %v", err)
	}
	if other := rubisScanEvict(2, shortRun); other.digest() == ref.digest() {
		t.Error("seeds 1 and 2 produced the same digest")
	}

	tampered := rubisScanEvict(1, shortRun)
	tampered.intervals[len(tampered.intervals)-1].AvgLatency *= 1.0000001
	if err := check(tampered, ref); err == nil {
		t.Error("tampered interval accepted")
	}
	failing := rubisScanEvict(1, shortRun)
	failing.failed, failing.attempted = 1, failing.attempted+1
	if err := check(failing, nil); err == nil {
		t.Error("failed interactions accepted")
	}
	empty := rubisScanEvict(1, warmup)
	if err := check(empty, nil); err == nil {
		t.Error("run with no measured interval accepted")
	}

	rowa := tpcwOrderingROWA(1, shortRun)
	if err := check(rowa, nil); err != nil {
		t.Fatalf("ROWA run rejected: %v", err)
	}
	if rowa.writes == 0 || rowa.applied != 3*rowa.writes {
		t.Errorf("ROWA: %d writes applied %d times, want 3 each", rowa.writes, rowa.applied)
	}
}

func TestFig3Check(t *testing.T) {
	met := []sla.Interval{{Queries: 1, Met: false}, {Queries: 1, Met: true}}
	both := []core.Action{{Kind: core.ActionProvision}, {Kind: core.ActionShrink}}
	if err := checkFig3(both, met); err != nil {
		t.Errorf("expected shape rejected: %v", err)
	}
	if err := checkFig3(both[:1], met); err == nil {
		t.Error("missing release accepted")
	}
	if err := checkFig3(both[1:], met); err == nil {
		t.Error("missing provision accepted")
	}
	if err := checkFig3(both, met[:1]); err == nil {
		t.Error("final SLA violation accepted")
	}
}

func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "rubis-scan-evict", "--trace", "2"},
		{"--workload", "rubis-scan-evict", "--seconds", "0"},
		{"--workload", "rubis-scan-evict", "--bogus"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want a non-zero exit and no result", args, code, out.String())
		}
	}
}
