package experiments

import (
	"testing"

	"outlierlb/internal/cluster"
	"outlierlb/internal/core"
	"outlierlb/internal/sim"
	"outlierlb/internal/simcore"
)

// eventCoreSeeds are the pinned seeds of the determinism sweep; short
// mode (the ci.sh event-core smoke) runs the first two, the full run
// all three.
var eventCoreSeeds = []uint64{1, 2, 3}

// fig4Fingerprint runs the §5.3 diagnosis scenario with every query
// traced and returns the byte-exact JSON of its result (metric ratios,
// outlier sets, SLA interval — all projections of the engines' metrics
// snapshots) and of every retained span tree.
func fig4Fingerprint(t *testing.T, seed uint64) (result, spans []byte) {
	t.Helper()
	traces, _ := withTracer(4096, func() { result = mustJSON(t, Figure4(seed)) })
	return result, mustJSON(t, traces)
}

// TestEventCoreDeterminism runs the same scenario twice through the
// event core under pinned seeds and asserts byte-identical metrics
// snapshots and span trees — the determinism guarantee the tentpole
// refactor must preserve: a central (time, sequence)-keyed queue leaves
// no room for replay divergence. The first run of each seed must also
// match the pinned goldens.
func TestEventCoreDeterminism(t *testing.T) {
	seeds := eventCoreSeeds
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		res1, spans1 := fig4Fingerprint(t, seed)
		res2, spans2 := fig4Fingerprint(t, seed)
		checkGolden(t, "fig4", seed, res1, spans1)
		if string(res1) != string(res2) {
			t.Errorf("seed=%d: metrics snapshots diverge across identical runs:\n%s\nvs\n%s", seed, res1, res2)
		}
		if string(spans1) != string(spans2) {
			t.Errorf("seed=%d: span trees diverge across identical runs", seed)
		}
	}
}

// TestEventCorePhaseTraffic checks the engines commit every service
// phase through their event queues: the queue statistics report
// phase-complete traffic and nothing else, fully drained.
func TestEventCorePhaseTraffic(t *testing.T) {
	var mgrs []*cluster.Manager
	SetObsHooks(nil, func(ctl *core.Controller, mgr *cluster.Manager, s *sim.Engine) {
		mgrs = append(mgrs, mgr)
	})
	defer SetObsHooks(nil, nil)

	Figure4(1)

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
