package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"sort"

	"outlierlb/internal/bufferpool"
	"outlierlb/internal/cluster"
	"outlierlb/internal/core"
	"outlierlb/internal/engine"
	"outlierlb/internal/experiments"
	"outlierlb/internal/server"
	"outlierlb/internal/sim"
	"outlierlb/internal/simcore"
	"outlierlb/internal/sla"
	"outlierlb/internal/storage"
	"outlierlb/internal/workload"
	"outlierlb/internal/workload/rubis"
	"outlierlb/internal/workload/tpcw"
)

// workloadDef is one benchmark workload: a closed-loop simulation in
// virtual time, built fresh from the seed on every run.
type workloadDef struct {
	name string
	run  func(seed uint64) *outcome
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []workloadDef{
	{"fig3-provisioning", runFig3},
	{"rubis-scan-evict", func(seed uint64) *outcome { return rubisScanEvict(seed, 1200) }},
	{"tpcw-ordering-rowa", func(seed uint64) *outcome { return tpcwOrderingROWA(seed, 1200) }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// outcome is what one simulation run of a workload yields: the
// simulated output the checks verify and the counts the per-layer
// ledger reports.
type outcome struct {
	simSeconds float64
	// intervals are every closed SLA interval of every application, in
	// application order; measured selects the ones whose latencies and
	// SLA compliance the end-to-end metrics summarize.
	intervals []sla.Interval
	measured  []sla.Interval
	actions   []core.Action

	// Interactions as the load generator saw them. Failed counts client
	// errors plus shed interactions.
	attempted, failed int64

	// Per-layer counts; zero where the workload's handles do not expose
	// them (Figure 3 runs inside experiments.Figure3).
	pool       bufferpool.Stats
	events     uint64
	writes     int64 // scheduler write sequence, summed over applications
	applied    int64 // writes applied, summed over replicas
	interacts  int64
	checkFault error // a workload-specific output check that failed
}

// queries is the number of simulated queries completed in the closed
// intervals.
func (o *outcome) queries() int64 {
	var n int64
	for _, iv := range o.intervals {
		n += iv.Queries
	}
	return n
}

// simLatency summarizes the measured intervals: the mean across
// intervals of each interval's p50 and p99, and the query-weighted mean
// latency. Intervals with no queries are skipped. The tracker's
// percentiles are edges of 15%-wide histogram buckets, so a median of
// them would often read the same bucket edge for every seed; the mean
// across intervals keeps the seed's detail.
func simLatency(ivs []sla.Interval) (p50, p99, mean float64) {
	var n int
	var queries int64
	for _, iv := range ivs {
		if iv.Queries == 0 {
			continue
		}
		n++
		p50 += iv.P50Latency
		p99 += iv.P99Latency
		mean += iv.AvgLatency * float64(iv.Queries)
		queries += iv.Queries
	}
	if n == 0 {
		return 0, 0, 0
	}
	return p50 / float64(n), p99 / float64(n), mean / float64(queries)
}

// metFrac is the share of measured intervals that meet the SLA.
func metFrac(ivs []sla.Interval) float64 {
	if len(ivs) == 0 {
		return 0
	}
	met := 0
	for _, iv := range ivs {
		if iv.Met {
			met++
		}
	}
	return float64(met) / float64(len(ivs))
}

// digest hashes everything in the outcome that a speed-only change must
// leave identical.
func (o *outcome) digest() string {
	h := sha256.New()
	for _, iv := range o.intervals {
		writeFloats(h, iv.Start, iv.End, iv.AvgLatency, iv.P50Latency, iv.P95Latency,
			iv.P99Latency, iv.Throughput)
		fmt.Fprintf(h, "%d %t\n", iv.Queries, iv.Met)
	}
	for _, a := range o.actions {
		fmt.Fprintf(h, "%s\n", a)
	}
	fmt.Fprintf(h, "%d %d %+v %d %d %d %d\n", o.attempted, o.failed, o.pool,
		o.events, o.writes, o.applied, o.interacts)
	return hex.EncodeToString(h.Sum(nil))
}

func writeFloats(h hash.Hash, vs ...float64) {
	for _, v := range vs {
		fmt.Fprintf(h, "%x ", math.Float64bits(v))
	}
}

// check verifies one run's simulated output against the workload's
// invariants and against the reference run of the same seed made
// earlier in this invocation (nil for the first run).
func check(o, ref *outcome) error {
	if o.checkFault != nil {
		return o.checkFault
	}
	if len(o.measured) == 0 || o.queries() == 0 {
		return errors.New("no measured intervals or no completed queries")
	}
	if o.failed > 0 {
		return fmt.Errorf("%d of %d interactions failed", o.failed, o.attempted)
	}
	if ref != nil {
		if got, want := o.digest(), ref.digest(); got != want {
			return fmt.Errorf("same seed, different output: digest %.12s != %.12s", got, want)
		}
	}
	return nil
}

// runFig3 is §5.2 through the exported scenario: sinusoid TPC-W load,
// reactive provisioning by the controller.
func runFig3(seed uint64) *outcome {
	r := experiments.Figure3(seed)
	o := &outcome{
		simSeconds: 1400,
		intervals:  r.Intervals,
		measured:   r.Intervals,
		actions:    r.Actions,
	}
	o.attempted = o.queries()
	o.interacts = o.attempted
	o.checkFault = checkFig3(r.Actions, r.Intervals)
	return o
}

// checkFig3 requires the EXPERIMENTS.md shape: the controller both
// provisioned and released a replica, and the run ends inside its SLA.
func checkFig3(actions []core.Action, ivs []sla.Interval) error {
	var prov, rel int
	for _, a := range actions {
		switch a.Kind {
		case core.ActionProvision:
			prov++
		case core.ActionShrink:
			rel++
		}
	}
	if prov == 0 || rel == 0 {
		return fmt.Errorf("fig3: want provision and release actions, got %d and %d", prov, rel)
	}
	if len(ivs) == 0 || !ivs[len(ivs)-1].Met {
		return errors.New("fig3: final interval misses the SLA")
	}
	return nil
}

// Testbed constants shared with internal/experiments: 4-core boxes whose
// disks make sequential transfer much cheaper than positioning.
const (
	cores     = 4
	warmup    = 200.0 // buffer pools fill before measurement starts
	tpcwPool  = 2 * experiments.PoolPages
	rubisPool = experiments.PoolPages
)

func disk() storage.Params { return storage.Params{Seek: 0.004, PerPage: 0.0001} }

func readAhead(pages int) bufferpool.Config {
	return bufferpool.Config{Capacity: pages, ReadAheadRun: 4, ReadAheadPages: 32}
}

// closedLoop is one application's load: its scheduler and emulator.
type closedLoop struct {
	sched *cluster.Scheduler
	em    *workload.Emulator
}

// simulate runs the emulators for dur simulated seconds, closing every
// application's SLA interval each `every` seconds, and gathers the
// outcome. Intervals starting at or after warmup are measured.
func simulate(s *sim.Engine, loops []closedLoop, engines []*engine.Engine, every, dur float64) *outcome {
	start := 0.0
	var tick func()
	tick = func() {
		end := s.Now().Seconds()
		for _, l := range loops {
			l.sched.Tracker().CloseInterval(start, end)
		}
		start = end
		s.ScheduleKind(simcore.KindIntervalTick, every, tick)
	}
	s.ScheduleKind(simcore.KindIntervalTick, every, tick)
	for _, l := range loops {
		l.em.Start()
	}
	s.RunUntil(sim.Time(dur))
	for _, l := range loops {
		l.em.Stop()
	}

	o := &outcome{simSeconds: dur}
	for _, l := range loops {
		for _, iv := range l.sched.Tracker().History() {
			o.intervals = append(o.intervals, iv)
			if iv.Start >= warmup {
				o.measured = append(o.measured, iv)
			}
		}
		failed := int64(len(l.em.Errors())) + l.em.Shed()
		o.interacts += l.em.Interactions()
		o.attempted += l.em.Interactions() + failed
		o.failed += failed
		o.writes += l.sched.WriteSeq()
		for _, r := range l.sched.Replicas() {
			o.applied += r.AppliedSeq(l.sched.App().Name)
		}
		if err := l.sched.ConsistencyCheck(); err != nil && o.checkFault == nil {
			o.checkFault = err
		}
	}
	o.events = sumKinds(s.QueueStats())
	for _, e := range engines {
		o.events += sumKinds(e.PhaseEventStats())
		st := e.Pool().TotalStats()
		o.pool.Accesses += st.Accesses
		o.pool.Hits += st.Hits
		o.pool.Misses += st.Misses
		o.pool.Prefetches += st.Prefetches
		o.pool.Evictions += st.Evictions
		o.pool.Flushes += st.Flushes
	}
	return o
}

func sumKinds(st simcore.Stats) uint64 {
	var n uint64
	for _, k := range st.PerKind {
		n += k
	}
	return n
}

func newEmulator(s *sim.Engine, sched *cluster.Scheduler, mix []workload.MixEntry, clients int, think float64) *workload.Emulator {
	em, err := workload.NewEmulator(s, sched, workload.Config{
		Mix: mix, ThinkTime: think, ThinkNoise: 0.3, Load: workload.Constant(clients),
	})
	if err != nil {
		panic(err) // static wiring cannot fail
	}
	return em
}

func must(err error) {
	if err != nil {
		panic(err) // static wiring cannot fail
	}
}

// rubisScanEvict is the steady phase 2 of Table 3 for dur simulated
// seconds: two RUBiS instances in two VMs of one box, each engine with a
// read-ahead pool smaller than its working set, all I/O through the
// shared dom-0 disk.
func rubisScanEvict(seed uint64, dur float64) *outcome {
	const (
		clients = 200
		think   = 7.0
		// RUBiS at 200 clients and 7 s think completes ~23 queries/s per
		// instance: 60 s intervals hold ~1 400, so each p99 has more than
		// ten samples beyond it.
		every = 60.0
	)
	s := sim.NewEngine(seed)
	box := server.MustNew(server.Config{Name: "xen1", Cores: cores, MemoryPages: 4 * rubisPool, Disk: disk()})
	var loops []closedLoop
	var engines []*engine.Engine
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("rubis-%d", i)
		vm, err := box.AddVM(fmt.Sprintf("domain-%d", i), rubisPool)
		must(err)
		eng := engine.MustNew(engine.Config{Name: fmt.Sprintf("mysql-dom%d", i), Pool: readAhead(rubisPool)}, vm)
		app := rubis.New(s.RNG().Fork(), name)
		sched, err := cluster.NewScheduler(app)
		must(err)
		must(sched.AddReplica(cluster.NewReplica(eng, box)))
		loops = append(loops, closedLoop{sched, newEmulator(s, sched, rubis.Mix(name), clients, think)})
		engines = append(engines, eng)
	}
	return simulate(s, loops, engines, every, dur)
}

// tpcwOrderingROWA drives the TPC-W ordering mix (~50% writes) over
// three read-one-write-all replicas, each on its own 4-core server, for
// dur simulated seconds.
func tpcwOrderingROWA(seed uint64, dur float64) *outcome {
	const (
		clients  = 200
		think    = 1.0
		replicas = 3
		every    = 10.0
	)
	s := sim.NewEngine(seed)
	app := tpcw.New(s.RNG().Fork(), tpcw.Options{})
	sched, err := cluster.NewScheduler(app)
	must(err)
	var engines []*engine.Engine
	for i := 1; i <= replicas; i++ {
		srv := server.MustNew(server.Config{Name: fmt.Sprintf("db%d", i), Cores: cores, MemoryPages: 2 * tpcwPool, Disk: disk()})
		eng := engine.MustNew(engine.Config{Name: fmt.Sprintf("engine-%d", i), Pool: readAhead(tpcwPool)}, srv)
		must(sched.AddReplica(cluster.NewReplica(eng, srv)))
		engines = append(engines, eng)
	}
	loops := []closedLoop{{sched, newEmulator(s, sched, tpcw.MixFor(tpcw.Ordering), clients, think)}}
	return simulate(s, loops, engines, every, dur)
}

// median returns the middle value (mean of the middle two), or 0 for no
// values. The input is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
