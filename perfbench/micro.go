package main

import (
	"fmt"
	"time"

	"outlierlb/internal/bufferpool"
	"outlierlb/internal/cluster"
	"outlierlb/internal/engine"
	"outlierlb/internal/metrics"
	"outlierlb/internal/mrc"
	"outlierlb/internal/server"
	"outlierlb/internal/sim"
	"outlierlb/internal/trace"
	"outlierlb/internal/workload"
	"outlierlb/internal/workload/tpcw"
)

// mrcWindow is the controller's MRC window: core.MRCSamples accesses.
const mrcWindow = 49152

// microInputs are the page and class streams the per-call timings
// replay, drawn from the seed during set-up so that no timing pays for
// generating its own input.
type microInputs struct {
	hitPages   []uint64          // TPC-W Home lookups: a working set far below the pool
	writePages []uint64          // TPC-W ShoppingCart writes
	reads      []metrics.ClassID // shopping-mix read classes
	ordering   []metrics.ClassID // ordering-mix classes, writes included
	window     []uint64          // BestSeller accesses for one MRC window
	// Fresh TPC-W applications for the engine and scheduler timings;
	// their page generators are drawn during the calls.
	engineApp, schedApp *cluster.Application
	zipf                *trace.ZipfSet // the NewProducts item pattern
}

func newMicroInputs(seed uint64) *microInputs {
	rng := sim.NewRNG(seed)
	in := &microInputs{
		hitPages: trace.Generate(trace.NewZipfSet(rng.Fork(), tpcw.ItemBase, 2000, 1.6), 1<<16),
	}
	app := tpcw.New(rng.Fork(), tpcw.Options{})
	for _, c := range app.Classes {
		switch c.ID.Class {
		case "ShoppingCart":
			in.writePages = trace.Generate(c.Pattern, 1<<16)
		case tpcw.BestSellerClass:
			in.window = trace.Generate(c.Pattern, mrcWindow)
		}
	}
	writes := map[metrics.ClassID]bool{}
	for _, c := range app.Classes {
		writes[c.ID] = c.Write
	}
	in.reads = drawClasses(rng.Fork(), tpcw.Mix(), writes, false, 1<<12)
	in.ordering = drawClasses(rng.Fork(), tpcw.MixFor(tpcw.Ordering), writes, true, 1<<12)
	in.engineApp = tpcw.New(rng.Fork(), tpcw.Options{})
	in.schedApp = tpcw.New(rng.Fork(), tpcw.Options{})
	in.zipf = trace.NewZipfSet(rng.Fork(), tpcw.ItemBase, 5000, 1.15)
	return in
}

// drawClasses draws n classes from mix by weight, skipping writes unless
// withWrites is set.
func drawClasses(rng *sim.RNG, mix []workload.MixEntry, writes map[metrics.ClassID]bool, withWrites bool, n int) []metrics.ClassID {
	total := 0.0
	for _, e := range mix {
		if withWrites || !writes[e.ID] {
			total += e.Weight
		}
	}
	out := make([]metrics.ClassID, 0, n)
	for len(out) < n {
		r := rng.Float64() * total
		for _, e := range mix {
			if !withWrites && writes[e.ID] {
				continue
			}
			if r -= e.Weight; r < 0 {
				out = append(out, e.ID)
				break
			}
		}
	}
	return out
}

// microResult is one per-call timing: the median over reps batches.
type microResult struct {
	metric string
	unit   string
	value  float64
}

// sink keeps measured results alive so the compiler cannot drop calls.
var sink uint64

// perCall returns the median cost of one call to op, in ns, over reps
// batches of n calls each.
func perCall(reps, n int, op func(i int)) float64 {
	costs := make([]float64, reps)
	base := 0
	for r := range costs {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op(base + i)
		}
		costs[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
		base += n
	}
	return median(costs)
}

// runMicros times each layer's public entry point on inputs shaped like
// the workloads and verifies that each call did what it is named for.
func runMicros(in *microInputs) ([]microResult, error) {
	const reps = 5
	var out []microResult
	add := func(metric, unit string, v float64) { out = append(out, microResult{metric, unit, v}) }

	// Pool hit: every Home page is resident in a TPC-W-sized pool.
	pool := bufferpool.MustNew(readAhead(tpcwPool))
	for _, pg := range in.hitPages {
		pool.Access("tpcw/Home", pg)
	}
	before := pool.TotalStats()
	ns := perCall(reps, 1<<16, func(i int) {
		if pool.Access("tpcw/Home", in.hitPages[i%len(in.hitPages)]).Hit {
			sink++
		}
	})
	if st := pool.TotalStats(); st.Hits-before.Hits != st.Accesses-before.Accesses {
		return nil, fmt.Errorf("bufferpool.hit_ns: %d of %d accesses missed",
			(st.Accesses-before.Accesses)-(st.Hits-before.Hits), st.Accesses-before.Accesses)
	}
	add("bufferpool.hit_ns", "ns", ns)

	// Miss with eviction: a full RUBiS-sized pool fed never-seen,
	// never-adjacent pages, so no access hits or triggers read-ahead.
	pool = bufferpool.MustNew(readAhead(rubisPool))
	for i := 0; i < rubisPool; i++ {
		pool.Access("rubis/scan", uint64(1<<40+2*i))
	}
	before = pool.TotalStats()
	ns = perCall(reps, 1<<15, func(i int) {
		if !pool.Access("rubis/scan", uint64(2*i)).Hit {
			sink++
		}
	})
	if st := pool.TotalStats(); st.Evictions-before.Evictions != st.Accesses-before.Accesses {
		return nil, fmt.Errorf("bufferpool.miss_evict_ns: %d accesses but %d evictions",
			st.Accesses-before.Accesses, st.Evictions-before.Evictions)
	}
	add("bufferpool.miss_evict_ns", "ns", ns)

	// Write: the ShoppingCart stream into a warmed TPC-W-sized pool.
	pool = bufferpool.MustNew(readAhead(tpcwPool))
	for _, pg := range in.writePages {
		pool.Write("tpcw/ShoppingCart", pg)
	}
	add("bufferpool.write_ns", "ns", perCall(reps, 1<<16, func(i int) {
		if pool.Write("tpcw/ShoppingCart", in.writePages[i%len(in.writePages)]).Hit {
			sink++
		}
	}))

	// Engine read: one shopping-mix read through Execute on a warmed
	// TPC-W engine.
	srv := server.MustNew(server.Config{Name: "db1", Cores: cores, MemoryPages: 2 * tpcwPool, Disk: disk()})
	eng := engine.MustNew(engine.Config{Name: "engine-1", Pool: readAhead(tpcwPool)}, srv)
	for _, spec := range in.engineApp.Classes {
		if err := eng.Register(spec); err != nil {
			return nil, err
		}
	}
	now := 0.0
	var execErr error
	execute := func(i int) {
		now += 0.002
		if _, err := eng.Execute(now, in.reads[i%len(in.reads)]); err != nil {
			execErr = err
		}
	}
	for i := 0; i < 1<<14; i++ {
		execute(i)
	}
	add("engine.execute_read_ns", "ns", perCall(reps, 1<<13, execute))
	if execErr != nil {
		return nil, fmt.Errorf("engine.execute_read_ns: %w", execErr)
	}

	// Scheduler submit: the ordering mix over three ROWA replicas.
	sched, err := cluster.NewScheduler(in.schedApp)
	if err != nil {
		return nil, err
	}
	for i := 1; i <= 3; i++ {
		srv := server.MustNew(server.Config{Name: fmt.Sprintf("db%d", i), Cores: cores, MemoryPages: 2 * tpcwPool, Disk: disk()})
		eng := engine.MustNew(engine.Config{Name: fmt.Sprintf("engine-%d", i), Pool: readAhead(tpcwPool)}, srv)
		if err := sched.AddReplica(cluster.NewReplica(eng, srv)); err != nil {
			return nil, err
		}
	}
	now = 0
	var submitErr error
	submit := func(i int) {
		now += 0.005
		if _, err := sched.Submit(now, in.ordering[i%len(in.ordering)]); err != nil {
			submitErr = err
		}
	}
	for i := 0; i < 1<<13; i++ {
		submit(i)
	}
	add("cluster.submit_ns", "ns", perCall(reps, 1<<12, submit))
	if submitErr != nil {
		return nil, fmt.Errorf("cluster.submit_ns: %w", submitErr)
	}
	if err := sched.ConsistencyCheck(); err != nil {
		return nil, fmt.Errorf("cluster.submit_ns: %w", err)
	}

	add("trace.zipf_draw_ns", "ns", perCall(reps, 1<<17, func(int) { sink += in.zipf.Next() }))

	// MRC window: Mattson's algorithm over one BestSeller window.
	var curve *mrc.Curve
	ms := perCall(reps, 1, func(int) { curve = mrc.Compute(in.window) }) / 1e6
	if curve.Total() != mrcWindow {
		return nil, fmt.Errorf("mrc.compute_window_ms: curve covers %d accesses, want %d", curve.Total(), mrcWindow)
	}
	add("mrc.compute_window_ms", "ms", ms)
	return out, nil
}
