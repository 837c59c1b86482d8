package experiments

import (
	"testing"

	"outlierlb/internal/core"
	"outlierlb/internal/ctrlnet"
	"outlierlb/internal/sim"
	"outlierlb/internal/simcore"
	"outlierlb/internal/workload"
	"outlierlb/internal/workload/tpcw"
)

// TestCtrlLossyDeterminism runs the lossy-channel chaos scenario twice
// per pinned seed and asserts the full results — protocol counters,
// event narration, actions, SLA intervals — are byte-identical as JSON.
// Loss, duplication and jittered delivery all draw from the channel's
// private seeded RNG, so replaying a seed must replay every drop and
// every retransmission exactly.
func TestCtrlLossyDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("double chaos runs are slow; run without -short")
	}
	forSeeds(t, pinnedSeeds, func(t *testing.T, seed uint64) {
		var fps [2][]byte
		for i := range fps {
			r, err := Env{}.ChaosCtrlLossy(seed)
			if err != nil {
				t.Fatal(err)
			}
			fps[i] = mustJSON(t, r)
		}
		if string(fps[0]) != string(fps[1]) {
			t.Errorf("seed=%d: lossy-channel runs diverge across identical seeds", seed)
		}
	})
}

// TestCtrlNetMessageTraffic checks which path actually runs: a perfect
// channel delivers every control message inline (no KindMessage events
// on the simulation queue), while a non-perfect channel schedules its
// deliveries as events. Without this, a silently-inline lossy channel
// or a silently-evented perfect channel would invalidate both the chaos
// scenarios and the pinned goldens, which assume the default channel
// adds no events.
func TestCtrlNetMessageTraffic(t *testing.T) {
	t.Parallel()
	// run drives a controller over a channel with the given default link
	// for a few ticks and returns the channel's stats plus the
	// KindMessage event count on the simulation queue.
	run := func(link ctrlnet.Config) (ctrlnet.Stats, uint64) {
		tb := Env{}.newTestbed(1, 2, PoolPages, core.Config{Interval: 10})
		tb.net.SetDefaults(link)
		app := tpcw.New(tb.sim.RNG().Fork(), tpcw.Options{})
		sched := tb.startApp(app)
		em := tb.emulate(sched, tpcw.Mix(), 1.0, workload.Constant(30))
		em.Start()
		tb.sim.ScheduleKind(simcore.KindControlAction, 60, tb.ctl.Start)
		tb.sim.RunUntil(sim.Time(200))
		em.Stop()
		return tb.net.Stats(), tb.sim.QueueStats().PerKind[simcore.KindMessage]
	}

	ns, events := run(ctrlnet.Config{})
	if ns.Sent == 0 || ns.InlineDelivered == 0 {
		t.Errorf("perfect channel carried no inline traffic (sent=%d inline=%d); the control plane is not routed through it",
			ns.Sent, ns.InlineDelivered)
	}
	if events != 0 {
		t.Errorf("perfect channel scheduled %d KindMessage events; inline delivery is broken", events)
	}

	ns, events = run(ctrlnet.Config{Latency: 0.01})
	if events == 0 || ns.InlineDelivered != 0 {
		t.Errorf("latency-bearing channel: %d KindMessage events, %d inline deliveries; control traffic is not going over the network",
			events, ns.InlineDelivered)
	}
}
