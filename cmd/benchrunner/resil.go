package main

// The resilience suite: every chaos, adversarial and pathological-
// policy scenario reduced to its scorecard across a pinned seed set,
// printed as a table, optionally persisted as a versioned strict-schema
// RESIL_*.json document (atomic write, no silent overwrite — the same
// discipline as BENCH_*.json), and optionally asserted for CI:
//
//	benchrunner -resil                                   # full sweep, table
//	benchrunner -resil -out RESIL_0.json                 # persist scorecards
//	benchrunner -resil -resil.scenarios clock-skew -assert  # CI gate
import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"outlierlb/internal/experiments"
	"outlierlb/internal/resil"
)

// resilScenario is one entry of the resilience sweep. wantMitigate
// marks scenarios where the control plane must visibly act (retry,
// breaker trip, retuning action); the adversarial metric-integrity
// scenarios leave it false because their correct response is to absorb
// the lying input without acting at all. wantRevert marks the
// pathological-policy runs, where a scorecard without a watchdog
// rollback means the guard slept through the fault.
type resilScenario struct {
	name         string
	wantMitigate bool
	wantRevert   bool
	run          func(seed uint64) (resil.Scorecard, error)
}

func resilScenarios() []resilScenario {
	env := experiments.Env{} // -resil refuses every flag that fills one
	chaos := func(fn func(uint64) (*experiments.ChaosResult, error)) func(uint64) (resil.Scorecard, error) {
		return func(seed uint64) (resil.Scorecard, error) {
			r, err := fn(seed)
			if err != nil {
				return resil.Scorecard{}, err
			}
			return r.Scorecard, nil
		}
	}
	defs := []resilScenario{
		{name: "gray-failure", wantMitigate: true, run: chaos(env.ChaosGrayFailure)},
		{name: "flapping", wantMitigate: true, run: chaos(env.ChaosFlapping)},
		{name: "metric-blackout", wantMitigate: true, run: chaos(env.ChaosMetricBlackout)},
		{name: "byzantine-metrics", run: chaos(env.ChaosByzantineMetrics)},
		{name: "snapshot-corruption", run: chaos(env.ChaosSnapshotCorruption)},
		{name: "clock-skew", run: chaos(env.ChaosClockSkew)},
		// The control-channel scenarios attack the message channel itself.
		// Partitions and loss must be visibly acted on (epoch fences,
		// retransmissions); delayed snapshots are an absorb-only scenario —
		// the staleness guard rejects the old reports and nothing else
		// should happen.
		{name: "ctrl-partition", wantMitigate: true, run: chaos(env.ChaosCtrlPartition)},
		{name: "ctrl-asym-partition", wantMitigate: true, run: chaos(env.ChaosCtrlAsymPartition)},
		{name: "ctrl-lossy", wantMitigate: true, run: chaos(env.ChaosCtrlLossy)},
		{name: "ctrl-delayed-snapshots", run: chaos(env.ChaosCtrlDelayedSnapshots)},
	}
	// The temporal scenarios stress the control plane with load shape
	// rather than injected faults: the surge window is the scorecard's
	// fault window, and every one of them demands visible mitigation
	// (provisioning, brownout shedding, or coarse isolation).
	// trace-replay-identity additionally fails outright if the replayed
	// run diverges from the recorded one, so replay fidelity is gated
	// here too.
	temporal := func(fn func(uint64) (*experiments.TemporalResult, error)) func(uint64) (resil.Scorecard, error) {
		return func(seed uint64) (resil.Scorecard, error) {
			r, err := fn(seed)
			if err != nil {
				return resil.Scorecard{}, err
			}
			return r.Scorecard, nil
		}
	}
	defs = append(defs,
		resilScenario{name: "flash-crowd", wantMitigate: true, run: temporal(env.FlashCrowd)},
		resilScenario{name: "diurnal-shift", wantMitigate: true, run: temporal(env.DiurnalShift)},
		resilScenario{name: "olap-antagonist", wantMitigate: true, run: temporal(env.OLAPAntagonist)},
		resilScenario{name: "trace-replay-identity", wantMitigate: true, run: temporal(env.TraceReplayIdentity)},
	)
	for _, tpl := range experiments.GuardTemplates() {
		defs = append(defs, resilScenario{
			name:         "guard-" + tpl,
			wantMitigate: true,
			wantRevert:   true,
			run: func(seed uint64) (resil.Scorecard, error) {
				r, err := env.GuardScenario(seed, tpl)
				if err != nil {
					return resil.Scorecard{}, err
				}
				return r.Scorecard, nil
			},
		})
	}
	return defs
}

// parseSeeds turns "1,2,3" into seeds; empty means the pinned default.
func parseSeeds(s string) ([]uint64, error) {
	if s == "" {
		return []uint64{1, 2, 3}, nil
	}
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// runResil executes the resilience sweep. filter selects scenarios by
// exact name ("" or "all" runs everything); assertBudget > 0 turns the
// run into a gate: every scorecard must be detected, mitigated and
// recovered within the budget (virtual seconds), and the guard
// scenarios must additionally show a watchdog rollback.
func runResil(filter, seedList, out string, force bool, assert bool, assertBudget float64) {
	seeds, err := parseSeeds(seedList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner: -resil.seeds:", err)
		os.Exit(2)
	}
	all := resilScenarios()
	var picked []resilScenario
	if filter == "" || filter == "all" {
		picked = all
	} else {
		want := map[string]bool{}
		for _, n := range strings.Split(filter, ",") {
			want[strings.TrimSpace(n)] = true
		}
		for _, sc := range all {
			if want[sc.name] {
				picked = append(picked, sc)
				delete(want, sc.name)
			}
		}
		if len(want) > 0 {
			var names []string
			for _, sc := range all {
				names = append(names, sc.name)
			}
			var unknown []string
			for n := range want {
				unknown = append(unknown, n)
			}
			fmt.Fprintf(os.Stderr, "benchrunner: unknown -resil.scenarios %v (want %s)\n",
				unknown, strings.Join(names, "|"))
			os.Exit(2)
		}
	}

	doc := resil.NewDoc()
	fmt.Printf("%-34s %5s %8s %8s %8s %8s %7s %7s %7s\n",
		"scenario", "seed", "detect", "mitigate", "recover", "revert", "t_det", "t_mit", "t_rec")
	failures := 0
	for _, sc := range picked {
		for _, seed := range seeds {
			card, err := sc.run(seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: %s seed=%d: %v\n", sc.name, seed, err)
				os.Exit(1)
			}
			doc.Scorecards = append(doc.Scorecards, card)
			fmt.Printf("%-34s %5d %8v %8v %8v %8v %7.0f %7.0f %7.0f\n",
				sc.name, seed, card.Detected, card.Mitigated, card.Recovered, card.Reverted,
				card.TimeToDetect, card.TimeToMitigate, card.TimeToRecover)
			if !assert {
				continue
			}
			verdict := func(cond bool, msg string) {
				if !cond {
					failures++
					fmt.Fprintf(os.Stderr, "benchrunner: ASSERT %s seed=%d: %s\n", sc.name, seed, msg)
				}
			}
			verdict(card.Detected, "fault not detected")
			if sc.wantMitigate {
				verdict(card.Mitigated, "fault not mitigated")
			}
			verdict(card.Recovered && card.TimeToRecover >= 0 && card.TimeToRecover <= assertBudget,
				fmt.Sprintf("not recovered within %.0fs (recovered=%v t_rec=%.0fs)",
					assertBudget, card.Recovered, card.TimeToRecover))
			if sc.wantRevert {
				verdict(card.Reverted, "watchdog never rolled back the pathological action")
			}
		}
	}

	if out != "" {
		if err := resil.WriteFile(out, doc, force); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d scorecards to %s\n", len(doc.Scorecards), out)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchrunner: %d scorecard assertion(s) failed\n", failures)
		os.Exit(1)
	}
	if assert {
		fmt.Printf("all %d scorecards pass: detected, mitigated, recovered within %.0fs\n",
			len(doc.Scorecards), assertBudget)
	}
}
