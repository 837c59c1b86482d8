// Command perfbench is the simulator's benchmark. It runs one workload
// — a closed-loop simulation in virtual time — repeatedly for a fixed
// host-time budget, checks every run's simulated output, and prints the
// end-to-end metrics or, with --trace 1, the per-layer ledger from a CPU
// profile. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload fig3-provisioning --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads, the metrics and how
// to read the ledger.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupProbes is how many times set-up is repeated to measure setup_s.
const setupProbes = 11

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed for the workload's inputs")
	seconds := fs.Float64("seconds", 10, "host seconds to keep repeating the workload (at least two runs are made)")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger from a CPU profile")
	probe := fs.Bool("setup-probe", false, "set up, print the wall clock in Unix ns and exit (used to measure setup_s)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := findWorkload(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	case *traceMode != 0 && *traceMode != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traceMode)
		return 2
	case !(*seconds > 0):
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %v\n", *seconds)
		return 2
	}

	// Set-up: everything a run needs before the clock starts.
	in := newMicroInputs(*seed)
	if *probe {
		fmt.Fprintln(stdout, time.Now().UnixNano())
		return 0
	}

	res, report, err := measure(wl, *seed, *seconds, *traceMode == 1, in, args)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	stdout.Write(report)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named is one metric in report order.
type named struct {
	name, unit string
	value      float64
}

// iteration is one simulation run inside the time budget.
type iteration struct {
	wall    float64 // host seconds to build the testbed and simulate
	alloc   uint64  // heap bytes allocated
	traced  bool
	samples []sample
	out     *outcome
	err     error // output check verdict
}

// measure repeats the workload until the budget is spent (at least twice,
// so the same-seed check always has a reference), then condenses the
// runs into the metrics of the requested mode.
func measure(wl workloadDef, seed uint64, seconds float64, traced bool, in *microInputs, args []string) (*result, []byte, error) {
	var setup float64
	if !traced {
		var err error
		if setup, err = measureSetup(args); err != nil {
			return nil, nil, err
		}
	}
	start := time.Now()
	var micros []microResult
	if traced {
		var err error
		if micros, err = runMicros(in); err != nil {
			return nil, nil, err
		}
	}
	var its []iteration
	for i := 0; i < 2 || time.Since(start).Seconds() < seconds; i++ {
		// In a traced run every other iteration is profiled; the others
		// are the untraced baseline of trace_overhead_frac.
		it, err := runOnce(wl, seed, traced && i%2 == 1)
		if err != nil {
			return nil, nil, err
		}
		var ref *outcome
		if i > 0 {
			ref = its[0].out
		}
		it.err = check(it.out, ref)
		its = append(its, it)
	}

	res := &result{Correct: true, Metrics: map[string]value{}}
	var report bytes.Buffer
	for i, it := range its {
		verdict := "ok"
		res.Attempted += it.out.attempted
		if it.err != nil {
			verdict = "FAILED: " + it.err.Error()
			res.Correct = false
			res.Failed += it.out.attempted
		} else {
			res.Failed += it.out.failed
		}
		fmt.Fprintf(&report, "# %s seed %d run %d: wall %.3f s, traced %t, digest %.12s, %s\n",
			wl.name, seed, i, it.wall, it.traced, it.out.digest(), verdict)
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // nothing ran: one attempt, failed
		res.Failed = 1
		res.Correct = false
	}

	var ms []named
	if traced {
		ms = layerMetrics(its, micros)
	} else {
		ms = endToEndMetrics(its, setup, res.Correct)
	}
	if err := checkNames(ms); err != nil {
		return nil, nil, err
	}
	tw := tabwriter.NewWriter(&report, 0, 0, 2, ' ', 0)
	for _, m := range ms {
		res.Metrics[m.name] = value{m.value, m.unit}
		fmt.Fprintf(tw, "# %s\t%.6g\t%s\n", m.name, m.value, m.unit)
	}
	tw.Flush()
	return res, report.Bytes(), nil
}

// runOnce builds and simulates the workload once, with the CPU profiler
// on when traced. The heap is collected first so runs start alike.
func runOnce(wl workloadDef, seed uint64, traced bool) (iteration, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return iteration{}, fmt.Errorf("start profile: %w", err)
		}
	}
	t0 := time.Now()
	out := wl.run(seed)
	wall := time.Since(t0).Seconds()
	it := iteration{wall: wall, traced: traced, out: out}
	if traced {
		pprof.StopCPUProfile()
		var err error
		if it.samples, err = decodeCPUProfile(prof.Bytes()); err != nil {
			return iteration{}, err
		}
	}
	runtime.ReadMemStats(&m1)
	it.alloc = m1.TotalAlloc - m0.TotalAlloc
	return it, nil
}

// measureSetup runs this program's set-up setupProbes times in fresh
// processes and returns the median host seconds from starting the
// process to the end of set-up: runtime and package initialization plus
// the benchmark's input generation.
func measureSetup(args []string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	probeArgs := append(append([]string(nil), args...), "--setup-probe")
	var ds []float64
	for i := 0; i < setupProbes; i++ {
		t0 := time.Now()
		out, err := exec.Command(exe, probeArgs...).Output()
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		ds = append(ds, float64(ns-t0.UnixNano())/1e9)
	}
	return median(ds), nil
}

// untraced returns the iterations run without the profiler.
func untraced(its []iteration) []iteration {
	var out []iteration
	for _, it := range its {
		if !it.traced {
			out = append(out, it)
		}
	}
	return out
}

// endToEndMetrics condenses untraced runs: host costs as medians across
// runs; simulated outcomes from the first run (every run of a seed must
// match it, or the check fails).
func endToEndMetrics(its []iteration, setup float64, correct bool) []named {
	its = untraced(its)
	var walls, qps, sps, allocs []float64
	for _, it := range its {
		walls = append(walls, it.wall)
		qps = append(qps, float64(it.out.queries())/it.wall)
		sps = append(sps, it.out.simSeconds/it.wall)
		allocs = append(allocs, float64(it.alloc)/1e6)
	}
	o := its[0].out
	completed := 0.0
	if correct && o.attempted > 0 {
		completed = 1 - float64(o.failed)/float64(o.attempted)
	}
	p50, p99, mean := simLatency(o.measured)
	return []named{
		{"wall_s", "s", median(walls)},
		{"setup_s", "s", setup},
		{"queries_per_wall_s", "1/s", median(qps)},
		{"sim_s_per_wall_s", "s/s", median(sps)},
		{"alloc_mb", "MB", median(allocs)},
		{"peak_rss_mb", "MB", peakRSS()},
		{"completed_frac", "frac", completed},
		{"sim_latency_p50_s", "s", p50},
		{"sim_latency_p99_s", "s", p99},
		{"sim_latency_mean_s", "s", mean},
	}
}

// peakRSS is the process's peak resident memory in MB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

// secondsMetrics lists the ledger's time metrics in report order.
func secondsMetrics() []string {
	var out []string
	for _, e := range entries {
		out = append(out, e.metric)
	}
	for _, l := range layers {
		out = append(out, l+".self_s")
	}
	return append(out, "other.self_s", "runtime.gc_s", "unattributed_s")
}

// shareName turns a seconds metric into its share-of-wall metric.
func shareName(s string) string { return strings.TrimSuffix(s, "_s") + "_share" }

// layerMetrics builds the per-layer ledger: profiled time per traced run
// and as a share of its wall time, counts from the handles the workload
// holds, and the per-call timings.
func layerMetrics(its []iteration, micros []microResult) []named {
	var samples []sample
	var tracedWall float64
	traced := 0
	for _, it := range its {
		if it.traced {
			samples = append(samples, it.samples...)
			tracedWall += it.wall
			traced++
		}
	}
	l := attribute(samples)
	secs := map[string]float64{
		"other.self_s":   l.self["other"],
		"runtime.gc_s":   l.gc,
		"unattributed_s": l.unattributed,
	}
	for _, layer := range layers {
		secs[layer+".self_s"] = l.self[layer]
	}
	for k, v := range l.entry {
		secs[k] = v
	}
	var out []named
	for _, name := range secondsMetrics() {
		out = append(out, named{name, "s", secs[name] / float64(traced)})
	}
	for _, name := range secondsMetrics() {
		out = append(out, named{shareName(name), "frac", secs[name] / tracedWall})
	}

	var walls []float64
	for _, it := range untraced(its) {
		walls = append(walls, it.wall)
	}
	base := median(walls)
	o := its[0].out
	fanout, nsPerAccess := 0.0, 0.0
	if o.writes > 0 {
		fanout = float64(o.applied) / float64(o.writes)
	}
	if o.pool.Accesses > 0 {
		poolSecs := (secs["bufferpool.access_s"] + secs["bufferpool.write_s"]) / float64(traced)
		nsPerAccess = poolSecs * 1e9 / float64(o.pool.Accesses)
	}
	out = append(out,
		named{"profiled_wall_s", "s", tracedWall / float64(traced)},
		named{"attributed_frac", "frac", l.attributedFrac()},
		named{"trace_overhead_frac", "frac", tracedWall/float64(traced)/base - 1},
		named{"core.actions", "count", float64(len(o.actions))},
		named{"bufferpool.accesses", "count", float64(o.pool.Accesses)},
		named{"bufferpool.hit_ratio", "frac", o.pool.HitRatio()},
		named{"bufferpool.evictions", "count", float64(o.pool.Evictions)},
		named{"bufferpool.prefetches", "count", float64(o.pool.Prefetches)},
		named{"bufferpool.flushes", "count", float64(o.pool.Flushes)},
		named{"bufferpool.ns_per_access", "ns", nsPerAccess},
		named{"cluster.write_fanout", "count", fanout},
		named{"workload.interactions", "count", float64(o.interacts)},
		named{"simcore.events", "count", float64(o.events)},
		named{"simcore.events_per_wall_s", "1/s", float64(o.events) / base},
		named{"sla.met_frac", "frac", metFrac(o.measured)},
	)
	for _, m := range micros {
		out = append(out, named{m.metric, m.unit, m.value})
	}
	return out
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// checkNames rejects a metric list with a malformed or repeated name or
// unit. The test suite checks the list against BENCHMARK.json.
func checkNames(ms []named) error {
	seen := map[string]bool{}
	for _, m := range ms {
		if !nameRE.MatchString(m.name) {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-], at most 64 long", m.name)
		}
		if !unitRE.MatchString(m.unit) {
			return fmt.Errorf("metric %s: malformed unit %q", m.name, m.unit)
		}
		if seen[m.name] {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		seen[m.name] = true
	}
	return nil
}
