package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// TraceID identifies one sampled query's span tree. IDs are derived
// deterministically from the tracer seed and the query ordinal, so the
// same seed samples the same queries with the same IDs on every run.
// Zero is reserved for "not traced".
type TraceID uint64

// SpanID identifies one span within its trace. The root span is always
// 1; children number upward in creation order, so IDs double as a
// creation sequence. Zero is reserved for "no parent" on the root.
type SpanID uint64

// SpanKind is the typed role of a span in the query path.
type SpanKind string

// Span kinds, in query-path order. A query root owns attempt spans (one
// per replica tried), which own exec spans (engine service), which own
// cpu/disk/lock-wait phases. Retry backoff between attempts appears as a
// retry-wait span directly under the root, a sibling of the attempts it
// separates.
const (
	// SpanQuery is the root: one whole Submit, admission to completion.
	SpanQuery SpanKind = "query"
	// SpanAttempt is one try against one replica (reads may retry; the
	// replica's server name is on the span, failures set Err).
	SpanAttempt SpanKind = "attempt"
	// SpanRetryWait is the backoff pause between failed attempts.
	SpanRetryWait SpanKind = "retry-wait"
	// SpanExec is the engine service time: lock wait through last I/O.
	SpanExec SpanKind = "exec"
	// SpanCPU is the CPU service phase inside an exec span.
	SpanCPU SpanKind = "cpu"
	// SpanDisk is the disk service phase inside an exec span.
	SpanDisk SpanKind = "disk"
	// SpanLockWait is time spent queued behind the engine's lock slots.
	SpanLockWait SpanKind = "lock-wait"
	// SpanGuard is a control-plane marker: a zero-or-short-duration root
	// span recording a watchdog rollback so trace timelines show where a
	// controller action was reverted. Created by Tracer.StartMarker, never
	// by StartQuery.
	SpanGuard SpanKind = "guard"
	// SpanCtrlAction is a control-plane marker root span covering one
	// remote action delivery over the message-passing control channel:
	// its events are the message hops (send, retry, ack, rejection).
	// Only created for non-inline deliveries — a perfect channel adds no
	// spans. Created by Tracer.StartMarker.
	SpanCtrlAction SpanKind = "ctrl-action"
)

// SpanEvent is a point-in-time annotation on a span — admission
// verdicts, slot acquire/commit/cancel, breaker and failure-detector
// transitions. Kind reuses the decision-trace EventKind vocabulary plus
// the span-only kinds below, so events correlate 1:1 with
// /debug/decisions entries carrying the same TraceID.
type SpanEvent struct {
	Time   float64            `json:"time"`
	Kind   EventKind          `json:"kind"`
	Detail string             `json:"detail,omitempty"`
	Fields map[string]float64 `json:"fields,omitempty"`
}

// Span-only event kinds: per-query admission mechanics too fine-grained
// for the decision trace but essential for per-request causality.
const (
	// EventAdmitted marks the admission gate letting the query through.
	EventAdmitted EventKind = "admission-admitted"
	// EventAdmissionRejected marks the gate turning the query away;
	// Detail carries the rejection reason (shed/throttle).
	EventAdmissionRejected EventKind = "admission-rejected"
	// EventSlotAcquire marks a bounded-queue slot granted on a replica.
	EventSlotAcquire EventKind = "slot-acquire"
	// EventSlotReject marks a slot refused (queue full or deadline).
	EventSlotReject EventKind = "slot-reject"
	// EventSlotCommit marks the winning replica's slot being kept.
	EventSlotCommit EventKind = "slot-commit"
	// EventSlotCancel marks a losing candidate's slot released.
	EventSlotCancel EventKind = "slot-cancel"
	// EventCtrlSend marks one request message handed to the control
	// channel on a SpanCtrlAction span (initial send or retransmission;
	// Fields carry the attempt number).
	EventCtrlSend EventKind = "ctrl-send"
	// EventCtrlAck marks the engine's acknowledgement arriving back at
	// the controller; Detail carries the engine's verdict (applied,
	// stale-epoch, no-lease, duplicate).
	EventCtrlAck EventKind = "ctrl-ack"
)

// Span is one timed node in a query's trace tree. Spans are built
// single-threaded on the simulation loop and published to concurrent
// readers only when the root finishes, so fields need no locking; a nil
// *Span is the universal "not sampled" value and every method is a
// no-op on it.
type Span struct {
	Trace  TraceID  `json:"trace"`
	ID     SpanID   `json:"id"`
	Parent SpanID   `json:"parent,omitempty"`
	Kind   SpanKind `json:"kind"`
	// Name is a short human label ("attempt srv0", "exec").
	Name string `json:"name,omitempty"`
	// App, Server and Class locate the span; empty when not applicable.
	App    string `json:"app,omitempty"`
	Server string `json:"server,omitempty"`
	Class  string `json:"class,omitempty"`
	// Start and End are virtual-time seconds. End < Start never occurs;
	// an unfinished span has End == 0 only while the trace is still
	// being built.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Err is the failure that ended the span, "" on success.
	Err string `json:"err,omitempty"`
	// Attrs carries numeric facts (pool hits/misses, queue estimates).
	Attrs map[string]float64 `json:"attrs,omitempty"`
	// Events are point-in-time annotations, in emission order.
	Events []SpanEvent `json:"events,omitempty"`
	// Children are nested spans in creation order.
	Children []*Span `json:"children,omitempty"`

	tracer *Tracer
	parent *Span
}

// Child opens a nested span starting at now. Nil-safe: a nil receiver
// returns nil, so untraced paths chain without guards (though hot paths
// should guard explicitly to skip argument evaluation).
func (s *Span) Child(now float64, kind SpanKind, name string) *Span {
	if s == nil {
		return nil
	}
	s.tracer.spanSeq++
	c := &Span{
		Trace: s.Trace, ID: s.tracer.spanSeq, Parent: s.ID,
		Kind: kind, Name: name, Start: now,
		tracer: s.tracer, parent: s,
	}
	s.Children = append(s.Children, c)
	return c
}

// Annotate records one numeric attribute. Nil-safe.
func (s *Span) Annotate(key string, v float64) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]float64, 4)
	}
	s.Attrs[key] = v
}

// AddEvent appends a point-in-time annotation. Nil-safe.
func (s *Span) AddEvent(now float64, kind EventKind, detail string, fields map[string]float64) {
	if s == nil {
		return
	}
	s.Events = append(s.Events, SpanEvent{Time: now, Kind: kind, Detail: detail, Fields: fields})
}

// Fail marks the span's outcome. Nil-safe.
func (s *Span) Fail(err string) {
	if s == nil {
		return
	}
	s.Err = err
}

// Finish closes the span at now (clamped to Start). Finishing the root
// publishes the whole tree to the tracer's ring, making it visible to
// concurrent readers; the tree must not be mutated afterwards. Nil-safe.
func (s *Span) Finish(now float64) {
	if s == nil {
		return
	}
	if now < s.Start {
		now = s.Start
	}
	s.End = now
	if s.parent == nil && s.tracer != nil {
		s.tracer.finishRoot(s)
	}
}

// TraceID returns the span's trace ID, 0 for nil — the nil-safe form
// event emitters use to stamp correlation IDs. Nil-safe.
func (s *Span) TraceID() TraceID {
	if s == nil {
		return 0
	}
	return s.Trace
}

// Root returns the span's trace root. Nil-safe.
func (s *Span) Root() *Span {
	if s == nil {
		return nil
	}
	for s.parent != nil {
		s = s.parent
	}
	return s
}

// TraceStats counts the tracer's lifetime activity.
type TraceStats struct {
	// Started counts every query seen while sampling was enabled
	// (rate > 0), sampled or not; a disabled tracer counts nothing.
	Started uint64 `json:"started"`
	// Sampled counts queries that got a span tree.
	Sampled uint64 `json:"sampled"`
	// Finished counts roots published to the ring.
	Finished uint64 `json:"finished"`
	// Evicted counts finished traces pushed out of the ring.
	Evicted uint64 `json:"evicted"`
}

// Tracer owns head sampling and the ring of finished traces. The write
// side (StartQuery, Span building) runs on the single-threaded
// simulation loop; only the publish step and the read accessors
// (Get/Recent/Stats) synchronize, so the debug server can read finished
// traces mid-run.
//
// Sampling is deterministic: the decision for the n-th query hashes the
// tracer seed and n through the splitmix64 finalizer, independent of
// the simulation's RNG stream — attaching a tracer never perturbs event
// order, which is what keeps figure goldens bit-identical.
type Tracer struct {
	seed uint64
	rate float64

	// Written only on the simulation loop but read by Stats() from
	// concurrent HTTP handlers mid-run, so the counters are atomic; the
	// disabled hot path stays one atomic add plus a branch.
	count   atomic.Uint64 // queries seen, sampled or not
	sampled atomic.Uint64

	// Single-threaded (simulation loop) state.
	spanSeq   SpanID // span counter for the trace being built
	cur       *Span  // innermost span new engine work should nest under
	markerSeq uint64 // guard-marker counter, independent of query sampling

	mu       sync.Mutex
	ring     []*Span
	head     int
	cap      int
	finished uint64
	evicted  uint64
	byID     map[TraceID]*Span
}

// DefaultTraceRing is the finished-trace ring capacity tools use.
const DefaultTraceRing = 512

// NewTracer returns a tracer sampling the given fraction of queries
// (rate ≤ 0 disables, ≥ 1 samples everything) and retaining the last
// ringCap finished traces (0 means DefaultTraceRing).
func NewTracer(seed uint64, rate float64, ringCap int) *Tracer {
	if ringCap <= 0 {
		ringCap = DefaultTraceRing
	}
	return &Tracer{seed: seed, rate: rate, cap: ringCap, byID: make(map[TraceID]*Span)}
}

// mix64 is the splitmix64 finalizer — an invertible hash, so distinct
// inputs give distinct trace IDs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// StartQuery makes the head-sampling decision for the next query and,
// when sampled, opens its root span (which also becomes the current
// span). Returns nil when the query is not sampled or the tracer is
// nil — the disabled path (nil tracer or rate ≤ 0) does no work at
// all, just two branches; counters are only maintained while sampling
// is enabled, where their atomic cost is noise next to span building.
func (t *Tracer) StartQuery(now float64, app, class string) *Span {
	if t == nil || t.rate <= 0 {
		return nil
	}
	n := t.count.Add(1)
	h := mix64(t.seed + n*0x9e3779b97f4a7c15)
	if t.rate < 1 && float64(h>>11)/(1<<53) >= t.rate {
		return nil
	}
	if h == 0 {
		h = 1
	}
	t.sampled.Add(1)
	t.spanSeq = 1
	root := &Span{
		Trace: TraceID(h), ID: 1, Kind: SpanQuery,
		App: app, Class: class, Start: now, tracer: t,
	}
	t.cur = root
	return root
}

// StartMarker opens a control-plane guard marker: a standalone root
// span (kind SpanGuard) that lands in the finished-trace ring so
// tracetool timelines show reverted actions next to query traces. The
// caller annotates it and Finishes it immediately.
//
// Markers draw IDs from their own counter and never touch the query
// head-sampling counter or the in-flight trace's span sequence, so
// attaching guard markers perturbs neither sampling decisions nor open
// query traces — figure goldens stay bit-identical. Returns nil when
// the tracer is nil or disabled.
func (t *Tracer) StartMarker(now float64, app, name string) *Span {
	if t == nil || t.rate <= 0 {
		return nil
	}
	t.markerSeq++
	h := mix64((t.seed ^ 0xa5a5a5a5a5a5a5a5) + t.markerSeq*0x9e3779b97f4a7c15)
	if h == 0 {
		h = 1
	}
	return &Span{
		Trace: TraceID(h), ID: 1, Kind: SpanGuard,
		Name: name, App: app, Start: now, tracer: t,
	}
}

// Current returns the span new nested work should attach to, nil when
// the active query is unsampled. Nil-safe.
func (t *Tracer) Current() *Span {
	if t == nil {
		return nil
	}
	return t.cur
}

// SetCurrent rebinds the attachment point — the scheduler points it at
// the active attempt span before calling into the engine. Nil-safe.
func (t *Tracer) SetCurrent(sp *Span) {
	if t != nil {
		t.cur = sp
	}
}

// Rate reports the configured sampling rate.
func (t *Tracer) Rate() float64 {
	if t == nil {
		return 0
	}
	return t.rate
}

// finishRoot publishes a finished trace to the ring.
func (t *Tracer) finishRoot(root *Span) {
	if t.cur != nil && t.cur.Root() == root {
		t.cur = nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finished++
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, root)
	} else {
		old := t.ring[t.head]
		delete(t.byID, old.Trace)
		t.ring[t.head] = root
		t.head = (t.head + 1) % t.cap
		t.evicted++
	}
	t.byID[root.Trace] = root
}

// Get returns the finished trace with the given ID, nil when unknown
// (never sampled, unfinished, or evicted). Nil-safe.
func (t *Tracer) Get(id TraceID) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byID[id]
}

// Recent returns up to n finished traces, oldest first (n ≤ 0 means
// all retained). Nil-safe.
func (t *Tracer) Recent(n int) []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, 0, len(t.ring))
	for i := 0; i < len(t.ring); i++ {
		out = append(out, t.ring[(t.head+i)%len(t.ring)])
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// Stats reports lifetime tracer counters. Nil-safe.
func (t *Tracer) Stats() TraceStats {
	if t == nil {
		return TraceStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceStats{Started: t.count.Load(), Sampled: t.sampled.Load(), Finished: t.finished, Evicted: t.evicted}
}

// Validate checks a finished trace for well-formedness: the root has
// no parent, every span carries the root's TraceID, every child's
// Parent field resolves to its actual parent's ID, span IDs are unique,
// and every span is finished (End ≥ Start).
func Validate(root *Span) error {
	if root == nil {
		return fmt.Errorf("trace: nil root")
	}
	if root.Parent != 0 {
		return fmt.Errorf("trace %d: root span %d has parent %d", root.Trace, root.ID, root.Parent)
	}
	seen := make(map[SpanID]bool)
	var walk func(s *Span) error
	walk = func(s *Span) error {
		if s.Trace != root.Trace {
			return fmt.Errorf("trace %d: span %d carries foreign trace id %d", root.Trace, s.ID, s.Trace)
		}
		if seen[s.ID] {
			return fmt.Errorf("trace %d: duplicate span id %d", root.Trace, s.ID)
		}
		seen[s.ID] = true
		if s.End < s.Start {
			return fmt.Errorf("trace %d: span %d ends before it starts (%g < %g)", root.Trace, s.ID, s.End, s.Start)
		}
		for _, c := range s.Children {
			if c.Parent != s.ID {
				return fmt.Errorf("trace %d: span %d claims parent %d but is nested under %d — orphan", root.Trace, c.ID, c.Parent, s.ID)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root)
}

// Phases is a query's latency partitioned into where the time went.
// The three fields always sum to exactly End-Start of the root.
type Phases struct {
	// Queue is time not covered below: admission, scheduler queueing,
	// replica freshness waits.
	Queue float64 `json:"queue"`
	// Service is time inside successful engine executions.
	Service float64 `json:"service"`
	// Retry is time burned on failed attempts and backoff waits.
	Retry float64 `json:"retry"`
}

type ival struct{ a, b float64 }

// Breakdown partitions a finished query's wall time into queue,
// service and retry by sweeping the span tree's intervals: service is
// the union of exec spans under non-failed attempts (clipped to the
// root window, priority over retry), retry is the union of failed
// attempts and retry-waits minus service, and queue is the remainder —
// an exact partition by construction.
func Breakdown(root *Span) Phases {
	if root == nil {
		return Phases{}
	}
	var service, retry []ival
	var walk func(s *Span, inFailedAttempt bool)
	walk = func(s *Span, inFailedAttempt bool) {
		switch {
		case s.Kind == SpanExec && !inFailedAttempt:
			service = append(service, ival{s.Start, s.End})
		case s.Kind == SpanAttempt && s.Err != "":
			retry = append(retry, ival{s.Start, s.End})
			inFailedAttempt = true
		case s.Kind == SpanRetryWait:
			retry = append(retry, ival{s.Start, s.End})
		}
		for _, c := range s.Children {
			walk(c, inFailedAttempt)
		}
	}
	walk(root, false)
	total := root.End - root.Start
	service = mergeClipped(service, root.Start, root.End)
	retry = subtract(mergeClipped(retry, root.Start, root.End), service)
	p := Phases{Service: length(service), Retry: length(retry)}
	p.Queue = total - p.Service - p.Retry
	if p.Queue < 0 {
		p.Queue = 0
	}
	return p
}

// mergeClipped clips intervals to [lo, hi], drops empties and merges
// overlaps into a sorted disjoint list.
func mergeClipped(ivs []ival, lo, hi float64) []ival {
	clipped := ivs[:0]
	for _, iv := range ivs {
		if iv.a < lo {
			iv.a = lo
		}
		if iv.b > hi {
			iv.b = hi
		}
		if iv.b > iv.a {
			clipped = append(clipped, iv)
		}
	}
	if len(clipped) == 0 {
		return nil
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].a < clipped[j].a })
	out := clipped[:1]
	for _, iv := range clipped[1:] {
		if iv.a <= out[len(out)-1].b {
			if iv.b > out[len(out)-1].b {
				out[len(out)-1].b = iv.b
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// subtract removes the sorted disjoint list b from the sorted disjoint
// list a.
func subtract(a, b []ival) []ival {
	var out []ival
	for _, iv := range a {
		for _, cut := range b {
			if cut.b <= iv.a || cut.a >= iv.b {
				continue
			}
			if cut.a > iv.a {
				out = append(out, ival{iv.a, cut.a})
			}
			if cut.b < iv.b {
				iv.a = cut.b
			} else {
				iv.a = iv.b
				break
			}
		}
		if iv.b > iv.a {
			out = append(out, iv)
		}
	}
	return out
}

func length(ivs []ival) float64 {
	total := 0.0
	for _, iv := range ivs {
		total += iv.b - iv.a
	}
	return total
}

// CriticalPath returns the chain of spans that determines the root's
// end time: from each span, the child whose End is latest (the root
// itself is element 0). Gaps between consecutive elements are waiting
// time on the critical path.
func CriticalPath(root *Span) []*Span {
	if root == nil {
		return nil
	}
	path := []*Span{root}
	s := root
	for len(s.Children) > 0 {
		best := s.Children[0]
		for _, c := range s.Children[1:] {
			if c.End >= best.End {
				best = c
			}
		}
		path = append(path, best)
		s = best
	}
	return path
}
