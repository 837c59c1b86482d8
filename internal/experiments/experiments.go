// Package experiments reproduces every table and figure of the paper's
// evaluation (§5) as deterministic, seedable scenario functions. The
// benchmark harness (bench_test.go), the benchrunner tool and the example
// programs all call into this package, so the numbers they report come
// from one implementation of each scenario.
//
// Every scenario is a method on Env, the run environment: the observer,
// tracer, arrival hook and replay trace a caller attaches. The zero Env
// is the plain run; Figure3 alone also exists as a package-level
// function.
//
// Concurrency: a scenario runs entirely on the calling goroutine and
// the package holds no mutable state, so runs may execute concurrently
// as long as they do not share what their Envs point at — give each
// concurrent run its own tracer and its own recorder behind OnArrival.
package experiments

import (
	"fmt"

	"outlierlb/internal/bufferpool"
	"outlierlb/internal/cluster"
	"outlierlb/internal/core"
	"outlierlb/internal/ctrlnet"
	"outlierlb/internal/metrics"
	"outlierlb/internal/obs"
	"outlierlb/internal/server"
	"outlierlb/internal/sim"
	"outlierlb/internal/storage"
	"outlierlb/internal/wltemporal"
	"outlierlb/internal/workload"
)

// PoolPages is the paper's buffer pool: 128 MB = 8192 16-KiB pages
// ("the database instance is given 128MB buffer pool space, which
// corresponds to 8192 memory pages").
const PoolPages = 8192

// diskParams models the testbed disks; sequential transfer is much
// cheaper than positioning, which is what makes read-ahead worthwhile.
func diskParams() storage.Params {
	return storage.Params{Seek: 0.004, PerPage: 0.0001}
}

// newServer builds one Dell-PowerEdge-like box: 4 cores and enough RAM
// for the given pool.
func newServer(name string, memoryPages int) *server.Server {
	return server.MustNew(server.Config{
		Name: name, Cores: 4, MemoryPages: memoryPages, Disk: diskParams(),
	})
}

// poolConfig is the engine buffer-pool configuration used across the
// experiments: InnoDB-style linear read-ahead.
func poolConfig(pages int) bufferpool.Config {
	return bufferpool.Config{Capacity: pages, ReadAheadRun: 4, ReadAheadPages: 32}
}

// testbed is the shared scaffolding: a simulation, a manager with a
// server pool, and a controller, built under one run environment.
type testbed struct {
	env Env
	sim *sim.Engine
	mgr *cluster.Manager
	ctl *core.Controller
	// net and cp are the control channel between the controller and the
	// engines, and its protocol endpoint.
	net *ctrlnet.Network
	cp  *core.ControlPlane
}

// Env is the run environment of a scenario: the observability and
// workload seams the tools and tests attach, read by every testbed the
// scenario builds. The zero value is the plain run. Each field is
// optional.
type Env struct {
	// Observer receives every testbed's decision-trace events.
	Observer obs.Observer
	// OnTestbed receives each testbed's controller, manager and
	// simulation as it is built (the tools point live diagnosis there).
	OnTestbed func(ctl *core.Controller, mgr *cluster.Manager, s *sim.Engine)
	// Tracer samples queries into span trees. It hashes its own seed,
	// never the simulation RNG, so goldens are unaffected.
	Tracer *obs.Tracer
	// OnArrival sees every client submission (cohort, exact virtual
	// time, class) before the scheduler does; -wl.record puts a
	// wltemporal.Recorder here.
	OnArrival func(cohort string, t float64, class metrics.ClassID)
	// Replay swaps the live load generators for a wltemporal.Replayer
	// of the trace. RNG fork parity holds for single-application
	// scenarios; see WORKLOADS.md for the contract.
	Replay *wltemporal.Trace
}

// Figure3 runs Env{}.Figure3. It alone stays a package-level function
// because the pinned benchmark harness in perfbench/ calls it by name.
func Figure3(seed uint64) *Figure3Result { return Env{}.Figure3(seed) }

// ctrlNetSeed decorrelates the control network's private RNG stream
// from the simulation's workload stream.
const ctrlNetSeed = 0x6374726c

func (e Env) newTestbed(seed uint64, servers, poolPages int, cfg core.Config) *testbed {
	s := sim.NewEngine(seed)
	mgr := cluster.NewManager()
	mgr.PoolConfig = poolConfig(poolPages)
	mgr.Tracer = e.Tracer
	for i := 0; i < servers; i++ {
		mgr.AddServer(newServer(fmt.Sprintf("db%d", i+1), poolPages*2))
	}
	ctl, err := core.NewController(s, mgr, cfg)
	if err != nil {
		panic(err) // static wiring cannot fail
	}
	tb := &testbed{env: e, sim: s, mgr: mgr, ctl: ctl}
	if e.Observer != nil {
		tb.observe(e.Observer)
	}
	if e.OnTestbed != nil {
		e.OnTestbed(ctl, mgr, s)
	}
	tb.net = ctrlnet.New(s, seed^ctrlNetSeed)
	tb.cp = ctl.AttachControlPlane(tb.net)
	tb.cp.SetTracer(e.Tracer)
	return tb
}

// observe points the controller and the manager at o.
func (tb *testbed) observe(o obs.Observer) {
	tb.ctl.SetObserver(o)
	tb.mgr.Observer = o
	tb.mgr.Clock = func() float64 { return tb.sim.Now().Seconds() }
}

// record attaches a fresh event recorder for the scenario's own
// results, teed with extra (nil for none) and the environment's
// observer, and returns the recorder and the combined observer.
func (tb *testbed) record(extra obs.Observer) (*obs.Recorder, obs.Observer) {
	rec := obs.NewRecorder(1 << 14)
	o := obs.Tee(rec, extra, tb.env.Observer)
	tb.observe(o)
	return rec, o
}

// startApp registers app with the manager and provisions its first
// replica on a free server, returning the scheduler.
func (tb *testbed) startApp(app *cluster.Application) *cluster.Scheduler {
	sched := tb.registerApp(app)
	if _, err := tb.mgr.ProvisionOnFreeServer(app.Name); err != nil {
		panic(err)
	}
	return sched
}

// registerApp creates and registers a scheduler without provisioning a
// replica — for applications that share an existing engine via Attach.
func (tb *testbed) registerApp(app *cluster.Application) *cluster.Scheduler {
	sched, err := cluster.NewScheduler(app)
	if err != nil {
		panic(err)
	}
	if err := tb.mgr.Register(sched); err != nil {
		panic(err)
	}
	return sched
}

// loadgen is what a scenario needs from its load source: the closed-
// loop workload.Emulator, the open-loop wltemporal.Driver and the
// wltemporal.Replayer all satisfy it, so scenarios run unchanged
// whether their load is generated live or replayed from a trace.
type loadgen interface {
	Start()
	Stop()
	Interactions() int64
	Shed() int64
	Errors() []error
}

// emulate attaches a client load source to sched: a closed-loop
// emulator normally, or a trace replayer when the environment carries a
// Replay trace. Either way the environment's OnArrival sees every
// submission under the application's name as its cohort.
func (tb *testbed) emulate(sched *cluster.Scheduler, mix []workload.MixEntry,
	think float64, load workload.LoadFunction) loadgen {
	name := sched.App().Name
	if tb.env.Replay != nil {
		rep, err := wltemporal.NewReplayer(tb.sim, tb.env.Replay,
			func(cohort string, now float64, class metrics.ClassID) error {
				if cohort != name {
					// A multi-application trace: this replayer only feeds
					// its own application's cohort.
					return nil
				}
				if tb.env.OnArrival != nil {
					tb.env.OnArrival(cohort, now, class)
				}
				_, err := sched.Submit(now, class)
				return err
			})
		if err != nil {
			panic(err)
		}
		return rep
	}
	cfg := workload.Config{
		Mix: mix, ThinkTime: think, ThinkNoise: 0.3, Load: load,
	}
	if tb.env.OnArrival != nil {
		cfg.OnArrival = func(t float64, class metrics.ClassID) { tb.env.OnArrival(name, t, class) }
	}
	em, err := workload.NewEmulator(tb.sim, sched, cfg)
	if err != nil {
		panic(err)
	}
	return em
}

// measure runs the simulation for dur seconds and returns the average
// latency and throughput over that span. It closes intervals directly on
// the tracker, so it is only for runs where no controller is ticking.
func (tb *testbed) measure(sched *cluster.Scheduler, dur float64) (latency, wips float64) {
	start := tb.sim.Now().Seconds()
	// Close out whatever partial interval is pending so the measurement
	// window is clean.
	sched.Tracker().CloseInterval(start, start)
	tb.sim.RunUntil(sim.Time(start + dur))
	iv := sched.Tracker().CloseInterval(start, start+dur)
	return iv.AvgLatency, iv.Throughput
}

// windowStats aggregates the controller-closed intervals of sched that
// fall inside [from, to]: a query-weighted average latency and the mean
// throughput. Used when a controller owns interval closing.
func windowStats(sched *cluster.Scheduler, from, to float64) (latency, wips float64) {
	var latSum float64
	var queries int64
	var tputSum float64
	n := 0
	for _, iv := range sched.Tracker().History() {
		if iv.Start < from-1e-9 || iv.End > to+1e-9 {
			continue
		}
		latSum += iv.AvgLatency * float64(iv.Queries)
		queries += iv.Queries
		tputSum += iv.Throughput
		n++
	}
	if queries > 0 {
		latency = latSum / float64(queries)
	}
	if n > 0 {
		wips = tputSum / float64(n)
	}
	return latency, wips
}
