// Package guard is the control plane's self-protection layer: an
// action watchdog that records a pre-action fitness baseline for every
// controller retuning action, re-evaluates the application's fitness a
// few intervals later, and automatically rolls back actions that made
// things worse — plus the guardrails around it (per-action-type rate
// limits, post-revert cooldowns, an oscillation detector, and an
// action-storm circuit that suspends diagnosis entirely when reverting
// individual actions stops helping).
//
// The paper's controller assumes its actions are beneficial; the
// watchdog assumes nothing. It judges every action by the same currency
// the SLA does — the application's measured p99 latency, throughput,
// shed rate and met fraction over recent measurement intervals — so a
// pathological policy (core.Pathological*) is detected by its effects,
// not by inspecting its decisions.
//
// Concurrency: the watchdog is driven from the single-threaded
// simulation loop via core.ActionGuard (BeginTick, IntervalClosed,
// Allow, Committed, Posture); rollback closures run inside
// IntervalClosed on that same goroutine, so they never race an
// in-flight controller Tick. Only Stats is safe to call from other
// goroutines (the debug endpoints read it mid-run); its counters are
// atomic.
package guard

import (
	"fmt"
	"sync/atomic"

	"outlierlb/internal/core"
	"outlierlb/internal/obs"
	"outlierlb/internal/sla"
)

// Weights blends the fitness components into one regression score.
// Each component is a "higher is worse" ratio of post-action to
// pre-action fitness; the weighted mean over the present components is
// compared against 1+Tolerance.
type Weights struct {
	// P99 weighs the p99 latency ratio post/pre.
	P99 float64
	// Throughput weighs the throughput ratio pre/post.
	Throughput float64
	// Shed weighs the shed-rate increase (1 + post - pre).
	Shed float64
	// Met weighs the SLA-met-fraction decrease (1 + pre - post).
	Met float64
}

// Config tunes the watchdog. The zero value gets usable defaults.
type Config struct {
	// EvaluateAfter is how many controller ticks after an action commits
	// its post-action fitness is judged. Default 3.
	EvaluateAfter int
	// BaselineWindow is how many recent interval points aggregate into
	// one fitness measurement. Default 3.
	BaselineWindow int
	// Tolerance is the allowed fitness regression: a weighted score
	// above 1+Tolerance marks the action suspect. Default 0.25.
	Tolerance float64
	// Weights blends the fitness components; zero-valued fields fall
	// back to defaults (P99 .4, Throughput .25, Shed .2, Met .15) when
	// ALL fields are zero.
	Weights Weights
	// StormWindow is how many ticks stormTrips suspect actions must fall
	// within to open the action-storm circuit. Default 12.
	StormWindow int
}

// The guardrail constants.
const (
	// rateLimit caps committed actions of one kind inside rateWindow
	// ticks; the next is vetoed.
	rateLimit  = 3
	rateWindow = 6
	// cooldownAfterRevert vetoes an action kind for this many ticks
	// after one of its actions was found harmful.
	cooldownAfterRevert = 4
	// oscillationWindow vetoes a second move (reschedule/io-move) of the
	// same app/class pair — or a re-shed of a class readmitted — within
	// this many ticks.
	oscillationWindow = 8
	// stormTrips suspect actions within Config.StormWindow ticks open
	// the action-storm circuit.
	stormTrips = 3
	// suspendFor is how many ticks the circuit stays open: diagnosis is
	// suspended after one coarse-fallback mitigation.
	suspendFor = 6
)

func (c *Config) fill() {
	if c.EvaluateAfter <= 0 {
		c.EvaluateAfter = 3
	}
	if c.BaselineWindow <= 0 {
		c.BaselineWindow = 3
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.25
	}
	if c.Weights == (Weights{}) {
		c.Weights = Weights{P99: 0.4, Throughput: 0.25, Shed: 0.2, Met: 0.15}
	}
	if c.StormWindow <= 0 {
		c.StormWindow = 12
	}
}

// Fitness is one application's aggregate health over a window of
// recent measurement intervals — the currency actions are judged in.
type Fitness struct {
	// P99 is the mean p99 latency across the window's intervals.
	P99 float64
	// Throughput is the mean throughput.
	Throughput float64
	// ShedRate is the mean fraction of offered load rejected.
	ShedRate float64
	// MetFrac is the fraction of intervals that met their SLA.
	MetFrac float64
	// Intervals is how many points the aggregate covers; 0 means "no
	// data" and disables judgment.
	Intervals int
}

// point is one closed measurement interval reduced to fitness inputs.
type point struct {
	p99, tput float64
	shedRate  float64
	met       bool
}

// pendingAction is one committed action awaiting post-action judgment.
type pendingAction struct {
	action  core.Action
	undo    func() error
	pre     Fitness
	dueTick int
}

// appState is the per-application watchdog state.
type appState struct {
	points      []point
	lastRejects int64
	hasRejects  bool
	suspectAt   []int // ticks of suspect verdicts, for the storm circuit
	suspendedTo int
	fallbackDue bool
}

// Stats counts the watchdog's lifetime activity. Safe to read
// concurrently via Watchdog.Stats.
type Stats struct {
	Actions  int64 `json:"actions"`
	Vetoes   int64 `json:"vetoes"`
	Suspects int64 `json:"suspects"`
	Reverts  int64 `json:"reverts"`
	Trips    int64 `json:"trips"`
}

// Watchdog implements core.ActionGuard: fitness-based post-action
// evaluation with automatic rollback, plus rate/cooldown/oscillation
// guardrails and the action-storm circuit.
type Watchdog struct {
	cfg      Config
	observer obs.Observer
	tracer   *obs.Tracer

	tick     int
	apps     map[string]*appState
	pending  []pendingAction
	rate     map[core.ActionKind][]int // commit ticks per kind
	cooldown map[core.ActionKind]int   // vetoed until tick
	moves    map[string]int            // app/class -> last move tick
	readmits map[string]int            // app/class -> last readmit tick

	actions  atomic.Int64
	vetoes   atomic.Int64
	suspects atomic.Int64
	reverts  atomic.Int64
	trips    atomic.Int64
}

// New returns a watchdog narrating through o (nil: silent).
func New(cfg Config, o obs.Observer) *Watchdog {
	cfg.fill()
	if o == nil {
		o = obs.Nop{}
	}
	return &Watchdog{
		cfg:      cfg,
		observer: o,
		apps:     make(map[string]*appState),
		rate:     make(map[core.ActionKind][]int),
		cooldown: make(map[core.ActionKind]int),
		moves:    make(map[string]int),
		readmits: make(map[string]int),
	}
}

// SetTracer attaches the span tracer rollbacks leave guard markers on,
// so tracetool timelines show reverted actions. Nil disables markers.
func (w *Watchdog) SetTracer(t *obs.Tracer) { w.tracer = t }

// Stats reports lifetime counters. Safe for concurrent use.
func (w *Watchdog) Stats() Stats {
	return Stats{
		Actions:  w.actions.Load(),
		Vetoes:   w.vetoes.Load(),
		Suspects: w.suspects.Load(),
		Reverts:  w.reverts.Load(),
		Trips:    w.trips.Load(),
	}
}

func (w *Watchdog) app(name string) *appState {
	s := w.apps[name]
	if s == nil {
		s = &appState{}
		w.apps[name] = s
	}
	return s
}

// BeginTick implements core.ActionGuard.
func (w *Watchdog) BeginTick(float64) { w.tick++ }

// fitness aggregates the last BaselineWindow points of s.
func (w *Watchdog) fitness(s *appState) Fitness {
	pts := s.points
	if len(pts) > w.cfg.BaselineWindow {
		pts = pts[len(pts)-w.cfg.BaselineWindow:]
	}
	var f Fitness
	for _, p := range pts {
		f.P99 += p.p99
		f.Throughput += p.tput
		f.ShedRate += p.shedRate
		if p.met {
			f.MetFrac++
		}
		f.Intervals++
	}
	if f.Intervals > 0 {
		n := float64(f.Intervals)
		f.P99 /= n
		f.Throughput /= n
		f.ShedRate /= n
		f.MetFrac /= n
	}
	return f
}

// capRatio bounds a worseness ratio so one zero denominator cannot
// dominate the blended score.
func capRatio(r float64) float64 {
	if r > 10 {
		return 10
	}
	return r
}

// regression blends the post/pre fitness components into one score;
// above 1+Tolerance the action is judged harmful. Components without
// data on both sides are left out of the blend.
func (w *Watchdog) regression(pre, post Fitness) float64 {
	wt := w.cfg.Weights
	score, total := 0.0, 0.0
	if pre.P99 > 0 && post.P99 > 0 && wt.P99 > 0 {
		score += wt.P99 * capRatio(post.P99/pre.P99)
		total += wt.P99
	}
	if pre.Throughput > 0 && wt.Throughput > 0 {
		if post.Throughput > 0 {
			score += wt.Throughput * capRatio(pre.Throughput/post.Throughput)
		} else {
			score += wt.Throughput * 10
		}
		total += wt.Throughput
	}
	if wt.Shed > 0 {
		score += wt.Shed * (1 + post.ShedRate - pre.ShedRate)
		total += wt.Shed
	}
	if wt.Met > 0 {
		score += wt.Met * (1 + pre.MetFrac - post.MetFrac)
		total += wt.Met
	}
	if total == 0 {
		return 1
	}
	return score / total
}

// IntervalClosed implements core.ActionGuard: it appends the interval
// to the app's fitness history, then judges every due action of that
// app — rolling back the harmful ones right here, between interval
// closes on the simulation goroutine.
func (w *Watchdog) IntervalClosed(now float64, app string, iv sla.Interval, rejected int64) {
	s := w.app(app)
	if iv.Queries > 0 || rejected > s.lastRejects {
		var shedRate float64
		if s.hasRejects {
			dRej := float64(rejected - s.lastRejects)
			if denom := dRej + float64(iv.Queries); denom > 0 && dRej > 0 {
				shedRate = dRej / denom
			}
		}
		s.lastRejects, s.hasRejects = rejected, true
		s.points = append(s.points, point{
			p99: iv.P99Latency, tput: iv.Throughput, shedRate: shedRate, met: iv.Met,
		})
		if len(s.points) > 4*w.cfg.BaselineWindow {
			s.points = s.points[len(s.points)-4*w.cfg.BaselineWindow:]
		}
	} else {
		s.lastRejects, s.hasRejects = rejected, true
	}

	kept := w.pending[:0]
	for _, p := range w.pending {
		if p.action.App != app {
			kept = append(kept, p)
			continue
		}
		if w.tick < p.dueTick {
			kept = append(kept, p)
			continue
		}
		w.judge(now, s, p)
	}
	w.pending = kept
}

// judge evaluates one due action and rolls it back if it regressed.
func (w *Watchdog) judge(now float64, s *appState, p pendingAction) {
	post := w.fitness(s)
	if p.pre.Intervals == 0 || post.Intervals == 0 {
		return // no data to judge with on one side — let it stand
	}
	score := w.regression(p.pre, post)
	if score <= 1+w.cfg.Tolerance {
		return
	}
	w.suspects.Add(1)
	fields := map[string]float64{
		"score":     score,
		"pre_p99":   p.pre.P99,
		"post_p99":  post.P99,
		"pre_tput":  p.pre.Throughput,
		"post_tput": post.Throughput,
		"pre_shed":  p.pre.ShedRate,
		"post_shed": post.ShedRate,
		"pre_met":   p.pre.MetFrac,
		"post_met":  post.MetFrac,
	}
	w.observer.Event(obs.Event{
		Time: now, Kind: obs.EventActionSuspect,
		App: p.action.App, Server: p.action.Server, Class: p.action.Class,
		Level: string(p.action.Kind), Fields: fields,
		Cause: fmt.Sprintf("fitness regressed %.2fx after %s (tolerance %.2fx)",
			score, p.action.Kind, 1+w.cfg.Tolerance),
	})
	s.suspectAt = append(s.suspectAt, w.tick)
	w.cooldown[p.action.Kind] = w.tick + cooldownAfterRevert
	if p.undo != nil {
		if err := p.undo(); err != nil {
			w.observer.Event(obs.Event{
				Time: now, Kind: obs.EventActionReverted,
				App: p.action.App, Server: p.action.Server, Class: p.action.Class,
				Level: string(p.action.Kind),
				Cause: "rollback FAILED: " + err.Error(),
			})
		} else {
			w.reverts.Add(1)
			w.observer.Event(obs.Event{
				Time: now, Kind: obs.EventActionReverted,
				App: p.action.App, Server: p.action.Server, Class: p.action.Class,
				Level: string(p.action.Kind), Fields: map[string]float64{"score": score},
				Cause: fmt.Sprintf("%s at t=%.0fs rolled back (%s)", p.action.Kind, p.action.Time, p.action.Detail),
			})
			// The rollback re-creates the pre-action placement/admission
			// state; re-doing the action right away would flip-flop, so the
			// undo lands in the oscillation ledgers like a committed move.
			if p.action.Class != "" {
				key := moveKey(p.action.App, p.action.Class)
				switch p.action.Kind {
				case core.ActionReschedule, core.ActionIOMove:
					w.moves[key] = w.tick
				case core.ActionShedClass:
					w.readmits[key] = w.tick
				}
			}
			if sp := w.tracer.StartMarker(now, p.action.App, "action-reverted"); sp != nil {
				sp.Server = p.action.Server
				sp.Class = p.action.Class
				sp.Annotate("score", score)
				sp.AddEvent(now, obs.EventActionReverted, string(p.action.Kind), nil)
				sp.Finish(now)
			}
		}
	}
	w.maybeTrip(now, p.action.App, s)
}

// maybeTrip opens the action-storm circuit when suspects cluster.
func (w *Watchdog) maybeTrip(now float64, app string, s *appState) {
	recent := 0
	for _, t := range s.suspectAt {
		if w.tick-t < w.cfg.StormWindow {
			recent++
		}
	}
	if recent < stormTrips || w.tick < s.suspendedTo {
		return
	}
	w.trips.Add(1)
	s.suspendedTo = w.tick + suspendFor
	s.fallbackDue = true
	w.observer.Event(obs.Event{
		Time: now, Kind: obs.EventGuardTripped, App: app,
		Fields: map[string]float64{"suspects_in_window": float64(recent)},
		Cause: fmt.Sprintf("%d suspect actions within %d intervals; diagnosis suspended for %d intervals",
			recent, w.cfg.StormWindow, suspendFor),
	})
}

// moveKey identifies an app/class pair in the oscillation ledgers.
func moveKey(app, class string) string { return app + "/" + class }

// Allow implements core.ActionGuard: rate limits, post-revert
// cooldowns and the oscillation detector, narrated as guard-veto
// events.
func (w *Watchdog) Allow(now float64, kind core.ActionKind, app, server, class string) (bool, string) {
	veto := func(reason, cause string) (bool, string) {
		w.vetoes.Add(1)
		w.observer.Event(obs.Event{
			Time: now, Kind: obs.EventGuardVeto,
			App: app, Server: server, Class: class,
			Level: reason, Cause: cause,
		})
		return false, cause
	}
	if until, ok := w.cooldown[kind]; ok && w.tick < until {
		return veto("cooldown", fmt.Sprintf("%s in post-revert cooldown for %d more interval(s)", kind, until-w.tick))
	}
	recent := 0
	for _, t := range w.rate[kind] {
		if w.tick-t < rateWindow {
			recent++
		}
	}
	if recent >= rateLimit {
		return veto("rate-limit", fmt.Sprintf("%d %s actions within %d intervals; limit %d",
			recent, kind, rateWindow, rateLimit))
	}
	if class != "" {
		key := moveKey(app, class)
		switch kind {
		case core.ActionReschedule, core.ActionIOMove:
			if t, ok := w.moves[key]; ok && w.tick-t < oscillationWindow {
				return veto("oscillation", fmt.Sprintf("class %s already moved %d interval(s) ago", class, w.tick-t))
			}
		case core.ActionShedClass:
			if t, ok := w.readmits[key]; ok && w.tick-t < oscillationWindow {
				return veto("oscillation", fmt.Sprintf("class %s readmitted %d interval(s) ago", class, w.tick-t))
			}
		}
	}
	return true, ""
}

// Committed implements core.ActionGuard: the action ran; snapshot the
// pre-action fitness and schedule its judgment.
func (w *Watchdog) Committed(a core.Action, undo func() error) {
	w.actions.Add(1)
	w.rate[a.Kind] = appendTrimmed(w.rate[a.Kind], w.tick, rateWindow)
	if a.Class != "" {
		key := moveKey(a.App, a.Class)
		switch a.Kind {
		case core.ActionReschedule, core.ActionIOMove:
			w.moves[key] = w.tick
		case core.ActionReadmitClass:
			w.readmits[key] = w.tick
		}
	}
	w.pending = append(w.pending, pendingAction{
		action:  a,
		undo:    undo,
		pre:     w.fitness(w.app(a.App)),
		dueTick: w.tick + w.cfg.EvaluateAfter,
	})
}

// appendTrimmed appends t and drops stamps older than window.
func appendTrimmed(ts []int, t, window int) []int {
	ts = append(ts, t)
	cut := 0
	for cut < len(ts) && t-ts[cut] >= window {
		cut++
	}
	return ts[cut:]
}

// Posture implements core.ActionGuard: while the storm circuit is
// open the first read returns GuardFallback (coarse-isolate once),
// every later read GuardSuspend until the suspension lapses.
func (w *Watchdog) Posture(app string) core.GuardPosture {
	s := w.apps[app]
	if s == nil || w.tick >= s.suspendedTo {
		return core.GuardNormal
	}
	if s.fallbackDue {
		s.fallbackDue = false
		return core.GuardFallback
	}
	return core.GuardSuspend
}

var _ core.ActionGuard = (*Watchdog)(nil)
