// Package lockmgr models table-level locking inside a database engine,
// the substrate for the lock-contention anomalies the paper's §7 names
// as future work for outlier detection ("invoking a query with the wrong
// arguments, lock contention or deadlock situations").
//
// The model is analytic, like the disk: each table has an exclusive lock
// represented by the virtual time it next becomes free. A writer arriving
// at time t starts at max(t, freeAt), holds the lock for its configured
// hold time, and pushes freeAt forward; readers of a locked table wait
// for the current holder but do not serialize among themselves. Because
// every query locks at most one table, deadlock is structurally
// impossible here; wait-time accounting is the observable the detector
// consumes.
//
// Concurrency: a Manager belongs to one engine's query path
// (internal/engine) and inherits its single-owner rule; lock waits it
// reports are logged through the engine's private logging buffer.
package lockmgr

import "sort"

// Manager tracks exclusive table locks for one engine. Not safe for
// concurrent use; it is driven by the single-threaded simulation.
type Manager struct {
	freeAt map[string]float64
	waits  map[string]*Stats // per query-class key
	held   map[string]*Stats // per table
}

// Stats accumulates lock accounting for one class or table.
type Stats struct {
	Acquisitions int64
	WaitSeconds  float64
	HoldSeconds  float64
}

// New returns an empty lock manager.
func New() *Manager {
	return &Manager{
		freeAt: make(map[string]float64),
		waits:  make(map[string]*Stats),
		held:   make(map[string]*Stats),
	}
}

func (m *Manager) classStats(class string) *Stats {
	s := m.waits[class]
	if s == nil {
		s = &Stats{}
		m.waits[class] = s
	}
	return s
}

func (m *Manager) tableStats(table string) *Stats {
	s := m.held[table]
	if s == nil {
		s = &Stats{}
		m.held[table] = s
	}
	return s
}

// AcquireExclusive takes table's exclusive lock on behalf of class at
// virtual time now, holding it for hold seconds. It returns when the
// lock was granted (≥ now) and when it will be released.
func (m *Manager) AcquireExclusive(now float64, class, table string, hold float64) (granted, released float64) {
	if hold < 0 {
		hold = 0
	}
	granted = now
	if free := m.freeAt[table]; free > granted {
		granted = free
	}
	released = granted + hold
	m.freeAt[table] = released

	cs := m.classStats(class)
	cs.Acquisitions++
	cs.WaitSeconds += granted - now
	cs.HoldSeconds += hold
	ts := m.tableStats(table)
	ts.Acquisitions++
	ts.WaitSeconds += granted - now
	ts.HoldSeconds += hold
	return granted, released
}

// WaitShared reports when a reader of table arriving at now may proceed:
// after the current exclusive holder releases. Readers do not serialize
// among themselves and leave freeAt untouched.
func (m *Manager) WaitShared(now float64, class, table string) (granted float64) {
	granted = now
	if free := m.freeAt[table]; free > granted {
		granted = free
	}
	if wait := granted - now; wait > 0 {
		cs := m.classStats(class)
		cs.Acquisitions++
		cs.WaitSeconds += wait
	}
	return granted
}

// AcquireOrdered takes the exclusive locks of several tables on behalf
// of class at time now, holding each for hold seconds. Tables are
// always locked in canonical (sorted) order, the standard static
// deadlock-avoidance discipline: because every multi-table transaction
// acquires in the same global order, a cyclic wait cannot form. The
// returned granted time is when the LAST lock was obtained (work may
// begin); released is when all locks are freed.
func (m *Manager) AcquireOrdered(now float64, class string, tables []string, hold float64) (granted, released float64) {
	if len(tables) == 0 {
		return now, now
	}
	ordered := append([]string(nil), tables...)
	sort.Strings(ordered)
	granted = now
	for _, tbl := range ordered {
		g, _ := m.AcquireExclusive(granted, class, tbl, 0)
		if g > granted {
			granted = g
		}
	}
	if hold < 0 {
		hold = 0
	}
	released = granted + hold
	// All locks are held until the transaction ends.
	for _, tbl := range ordered {
		if m.freeAt[tbl] < released {
			m.freeAt[tbl] = released
		}
		m.tableStats(tbl).HoldSeconds += released - granted
	}
	m.classStats(class).HoldSeconds += float64(len(ordered)) * (released - granted)
	return granted, released
}

// ClassStats returns a copy of the accounting for one query-class key.
func (m *Manager) ClassStats(class string) Stats {
	if s := m.waits[class]; s != nil {
		return *s
	}
	return Stats{}
}

// TableStats returns a copy of the accounting for one table.
func (m *Manager) TableStats(table string) Stats {
	if s := m.held[table]; s != nil {
		return *s
	}
	return Stats{}
}

// TopHolders ranks query-class keys by total lock hold time, descending —
// the diagnostic ranking for "who is the contention coming from". Ties
// break by name for determinism.
func (m *Manager) TopHolders() []string {
	type rated struct {
		class string
		hold  float64
	}
	out := make([]rated, 0, len(m.waits))
	for c, s := range m.waits {
		out = append(out, rated{c, s.HoldSeconds})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].hold != out[j].hold {
			return out[i].hold > out[j].hold
		}
		return out[i].class < out[j].class
	})
	names := make([]string, len(out))
	for i, r := range out {
		names[i] = r.class
	}
	return names
}

// ResetStats clears accounting but keeps current lock state.
func (m *Manager) ResetStats() {
	m.waits = make(map[string]*Stats)
	m.held = make(map[string]*Stats)
}
