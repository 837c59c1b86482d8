package experiments

import (
	"testing"

	"outlierlb/internal/cluster"
	"outlierlb/internal/core"
	"outlierlb/internal/sim"
	"outlierlb/internal/simcore"
)

// TestEventCoreDeterminism runs the same scenario twice through the
// event core under pinned seeds and asserts byte-identical metrics
// snapshots and span trees — the determinism guarantee the tentpole
// refactor must preserve: a central (time, sequence)-keyed queue leaves
// no room for replay divergence. The first run of each seed must also
// match the pinned goldens.
func TestEventCoreDeterminism(t *testing.T) {
	forSeeds(t, seedsFor(2), func(t *testing.T, seed uint64) {
		res1, spans1 := fingerprint(t, Env{}, Env.Figure4, seed)
		res2, spans2 := fingerprint(t, Env{}, Env.Figure4, seed)
		checkGolden(t, "fig4", seed, res1, spans1)
		if string(res1) != string(res2) {
			t.Errorf("seed=%d: metrics snapshots diverge across identical runs:\n%s\nvs\n%s", seed, res1, res2)
		}
		if string(spans1) != string(spans2) {
			t.Errorf("seed=%d: span trees diverge across identical runs", seed)
		}
	})
}

// TestEventCorePhaseTraffic checks the engines commit every service
// phase through their event queues: the queue statistics report
// phase-complete traffic and nothing else, fully drained.
func TestEventCorePhaseTraffic(t *testing.T) {
	t.Parallel()
	var mgrs []*cluster.Manager
	Env{OnTestbed: func(_ *core.Controller, mgr *cluster.Manager, _ *sim.Engine) {
		mgrs = append(mgrs, mgr)
	}}.Figure4(1)

	var total simcore.Stats
	for _, mgr := range mgrs {
		for _, srv := range mgr.Servers() {
			for _, eng := range mgr.EnginesOn(srv) {
				st := eng.PhaseEventStats()
				total.Pops += st.Pops
				for k, n := range st.PerKind {
					total.PerKind[k] += n
				}
			}
		}
	}
	if total.PerKind[simcore.KindPhaseComplete] == 0 {
		t.Fatal("no phase-complete events flowed through the engines' queues")
	}
	for k, n := range total.PerKind {
		if simcore.Kind(k) != simcore.KindPhaseComplete && n != 0 {
			t.Errorf("unexpected %v traffic on the phase queues: %d events", simcore.Kind(k), n)
		}
	}
	if total.Pops != total.PerKind[simcore.KindPhaseComplete] {
		t.Errorf("phase queues pushed %d phase events but popped %d — phases left undrained",
			total.PerKind[simcore.KindPhaseComplete], total.Pops)
	}
}
