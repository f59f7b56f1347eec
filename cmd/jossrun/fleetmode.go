package main

import (
	"fmt"
	"os"
	"strings"

	"joss/internal/fleet"
	"joss/internal/service"
	"joss/internal/workloads"
)

// splitList parses a comma-separated flag value; empty and "all" both
// mean "everything" (the coordinator fills in the full set).
func splitList(s string) []string {
	if s == "" || strings.EqualFold(s, "all") {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// fleetSweep shards one sweep across the -fleet daemons and prints the
// merged result plus the degradation report. The merged per-cell
// reports are byte-identical to a single daemon's /sweep response —
// failover, spillover and shard deaths change only the telemetry.
func fleetSweep(targets []string, benchList, schedList string, speedup, scale float64, seed int64, repeats int, showMetrics bool) error {
	benches := splitList(benchList)
	scheds := splitList(schedList)
	if speedup > 1 {
		if len(scheds) != 0 {
			return fmt.Errorf("-speedup picks the constrained JOSS scheduler; drop -sched or -speedup")
		}
		scheds = []string{constrainedName("JOSS", speedup)}
	}

	coord, err := fleet.New(fleet.Config{
		Shards: targets,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "jossrun: "+format+"\n", args...)
		},
		OnCellMerged: func(bench, sched, shard string) {
			fmt.Fprintf(os.Stderr, "jossrun: %s/%s served by %s\n", bench, sched, shard)
		},
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	res, deg, err := coord.Sweep(service.WireSweepRequest{
		Benchmarks: benches,
		Schedulers: scheds,
		Scale:      scale,
		Seed:       &seed,
		Repeats:    repeats,
	})
	printFleetResult(res, deg)
	if showMetrics {
		printFleetMetrics(coord, targets)
	}
	return err
}

func printFleetResult(res service.WireSweepResult, deg fleet.Degradation) {
	// Print in the daemon's canonical order: Fig8 benchmark order,
	// scheduler catalog order.
	var benches []string
	for _, wl := range workloads.Fig8Configs() {
		benches = append(benches, wl.Name)
	}
	for _, b := range benches {
		m := res.Reports[b]
		if len(m) == 0 {
			continue
		}
		for _, s := range service.SchedulerNames {
			rep, ok := m[s]
			if !ok {
				continue
			}
			fmt.Printf("\n%s:", b)
			printReport(rep)
		}
		// Schedulers outside the standard catalog (e.g. JOSS+1.4X).
		for s, rep := range m {
			if !isCatalogSched(s) {
				fmt.Printf("\n%s:", b)
				printReport(rep)
			}
		}
	}
	fmt.Printf("\nfleet           %d/%d units over %d shard workers in %.3f s\n",
		res.UnitsDone, res.Units, res.Workers, res.ElapsedSec)
	fmt.Printf("plan searches   %d evaluations fleet-wide (0 = all shards served resident plans)\n", res.PlanEvals)
	if !deg.Degraded {
		fmt.Printf("degradation     none (all shards healthy)\n")
		return
	}
	fmt.Printf("degradation     %d shard failures, %d cells reassigned, %d spilled over, %d retries, %d duplicate frames dropped\n",
		len(deg.FailedShards), deg.ReassignedCells, deg.SpilloverCells, deg.Retries, deg.DuplicateFrames)
	for _, f := range deg.FailedShards {
		fmt.Printf("  shard %s: %s (%d cells reassigned)\n", f.Shard, f.Reason, f.CellsLost)
	}
	if len(deg.LostCells) > 0 {
		fmt.Printf("  LOST: %s\n", strings.Join(deg.LostCells, ", "))
	}
	fmt.Printf("  survivors: %s\n", strings.Join(deg.Survivors, ", "))
}

// fleetWarmup pre-trains each shard's ring slice in parallel so a
// following fleet sweep over the same grid, scale and seed performs
// zero plan searches on every shard. A failed shard's slice stays cold
// (trained lazily by the next sweep) and maps to the retriable exit.
func fleetWarmup(targets []string, benchList, schedList string, speedup, scale float64, seed int64) error {
	scheds := splitList(schedList)
	if speedup > 1 {
		if len(scheds) != 0 {
			return fmt.Errorf("-speedup picks the constrained JOSS scheduler; drop -sched or -speedup")
		}
		scheds = []string{constrainedName("JOSS", speedup)}
	}
	coord, err := fleet.New(fleet.Config{
		Shards: targets,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "jossrun: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	res, err := coord.Warmup(service.WireTrainRequest{
		Benchmarks: splitList(benchList),
		Schedulers: scheds,
		Scale:      scale,
		Seed:       &seed,
	})
	for _, sw := range res.Shards {
		if sw.Err != "" {
			fmt.Printf("shard %s: FAILED (%s); its %d benches stay cold\n", sw.Shard, sw.Err, len(sw.Benchmarks))
			continue
		}
		r := sw.Result
		fmt.Printf("shard %s: %d benches, %d keys (%d trained, %d cached, %d skipped, %d failed), %d early-stopped runs\n",
			sw.Shard, len(sw.Benchmarks), r.Keys, r.Trained, r.Cached, r.Skipped, r.Failed, r.EarlyStopped)
	}
	fmt.Printf("\nfleet warm-up   %d keys over %d shards in %.3f s: %d trained, %d cached, %d skipped, %d failed\n",
		res.Keys, len(res.Shards), res.ElapsedSec, res.Trained, res.Cached, res.Skipped, res.Failed)
	if err != nil {
		// Warm-up is an optimisation: a cold slice trains lazily, so an
		// incomplete pass is retriable, not fatal.
		return &fleet.TransientError{Code: 0, Err: err}
	}
	return nil
}

func isCatalogSched(name string) bool {
	for _, s := range service.SchedulerNames {
		if s == name {
			return true
		}
	}
	return false
}
