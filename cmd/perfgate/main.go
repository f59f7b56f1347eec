// Command perfgate is the CI performance regression gate: it compares
// a freshly generated BENCH_*.json (see `jossbench bench`) against the
// committed baseline and exits non-zero when simulator throughput
// drops by more than the threshold on any benchmark both files report
// tasks_per_s for — or when a warm-path row (benchmarks named *Warm,
// the Reset-recycled executor iterations) regresses in allocs/op or
// B/op beyond their thresholds. Allocation counts are noise-free where
// throughput is not, so the memory gates catch regressions that hide
// inside tasks/s variance.
//
// Rows retired together with the mechanism they measured (see
// retiredRows) are reported as retired rather than failed when an older
// baseline still carries them; any other row missing from the
// candidate fails.
//
// A candidate-internal pair holds plan pre-training to its
// contract: PretrainedSweep (the ColdSweep request over a Train-warmed
// plan cache) must report zero plan evaluations — the deterministic
// proof that trained plans are adopted instead of re-searched — and
// must stay within -pretrainratio of ColdSweep's ns/op, a loose
// parity ceiling: single-core runners hide most of the search cost
// the warm path deletes (see PERF.md PR 9), so the time gate only
// catches the rows diverging wildly, and the evals gate is the
// contract.
//
// A second candidate-internal check is absolute: the MetricsHotPath row
// must report exactly 0 allocs/op — the observability layer's standing
// contract that metric updates never allocate on the serving path.
//
// Usage:
//
//	perfgate -baseline BASELINE.json [-threshold 0.20]
//	         [-allocthreshold 0.10] [-bytesthreshold 0.30]
//	         [-pretrainratio 1.10] [CANDIDATE.json]
//
// Without an explicit candidate, the newest BENCH_*.json in the
// working directory that is not the baseline is compared.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchFile mirrors the fields of jossbench's BenchReport that the
// gate reads; unknown fields are ignored so the formats can evolve
// independently.
type benchFile struct {
	Timestamp  string       `json:"timestamp"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

// Alloc fields are pointers so an absent field (older report format,
// renamed key) is distinguishable from a legitimate measured zero.
type benchEntry struct {
	Name        string             `json:"name"`
	NsPerOp     *float64           `json:"ns_per_op"`
	AllocsPerOp *int64             `json:"allocs_per_op"`
	BytesPerOp  *int64             `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics"`
}

// retiredRows names benchmark rows deleted together with the mechanism
// they measured, with the reason. A baseline recorded before the
// deletion still carries them; they are reported, not failed, so
// retiring a mechanism does not force a re-baseline. The rows' own
// thresholds are not loosened: a candidate that still reports a
// retired row is gated as before.
var retiredRows = map[string]string{
	"BatchedSweepWarm": "batched lockstep repeats were removed once every unit shares one cached graph (PERF.md, \"one execution path\")",
}

func readBench(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// newestBench finds the most recent BENCH_*.json (lexicographic on the
// timestamped name, which matches recency) that is not the baseline.
func newestBench(baseline string) (string, error) {
	matches, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		return "", err
	}
	sort.Strings(matches)
	for i := len(matches) - 1; i >= 0; i-- {
		if filepath.Clean(matches[i]) != filepath.Clean(baseline) {
			return matches[i], nil
		}
	}
	return "", fmt.Errorf("no BENCH_*.json candidate found (baseline %s)", baseline)
}

func main() {
	baseline := flag.String("baseline", "", "committed baseline BENCH_*.json (required)")
	threshold := flag.Float64("threshold", 0.20,
		"maximum tolerated fractional tasks/s drop before the gate fails")
	allocThreshold := flag.Float64("allocthreshold", 0.10,
		"maximum tolerated fractional allocs/op growth on warm rows (*Warm benchmarks)")
	bytesThreshold := flag.Float64("bytesthreshold", 0.30,
		"maximum tolerated fractional B/op growth on warm rows (*Warm benchmarks)")
	pretrainRatio := flag.Float64("pretrainratio", 1.10,
		"maximum PretrainedSweep/ColdSweep ns/op ratio in the candidate")
	flag.Parse()
	if *baseline == "" || flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: perfgate -baseline BASELINE.json [-threshold F] [CANDIDATE.json]")
		os.Exit(2)
	}

	candidate := ""
	if flag.NArg() == 1 {
		candidate = flag.Arg(0)
	} else {
		var err error
		candidate, err = newestBench(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfgate:", err)
			os.Exit(2)
		}
	}

	base, err := readBench(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(2)
	}
	cand, err := readBench(candidate)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(2)
	}

	candBy := make(map[string]benchEntry)
	for _, b := range cand.Benchmarks {
		candBy[b.Name] = b
	}

	fmt.Printf("perfgate: %s (baseline) vs %s, thresholds: %.0f%% tasks/s drop, warm rows %.0f%% allocs/op, %.0f%% B/op\n",
		*baseline, candidate, *threshold*100, *allocThreshold*100, *bytesThreshold*100)
	failed := false
	compared := 0
	for _, b := range base.Benchmarks {
		baseV, hasBaseRate := b.Metrics["tasks_per_s"]
		rateGated := hasBaseRate && baseV > 0
		// Memory gates apply to the warm rows only: cold rows pay
		// one-time setup whose allocation count is not the contract,
		// while a warm iteration's allocs/op is the recycling invariant
		// every PR since the worker-pool executor has defended. They do
		// not require the row to also report tasks/s.
		memGated := strings.HasSuffix(b.Name, "Warm") && (b.AllocsPerOp != nil || b.BytesPerOp != nil)
		if !rateGated && !memGated {
			continue
		}
		c, ok := candBy[b.Name]
		if why, retired := retiredRows[b.Name]; retired && !ok {
			fmt.Printf("  skip %-24s retired: %s\n", b.Name, why)
			continue
		}
		if !ok {
			fmt.Printf("  FAIL %-24s missing from candidate\n", b.Name)
			failed = true
			continue
		}
		if rateGated {
			candV, hasRate := c.Metrics["tasks_per_s"]
			if !hasRate {
				fmt.Printf("  FAIL %-24s missing tasks_per_s in candidate\n", b.Name)
				failed = true
			} else {
				compared++
				drop := 1 - candV/baseV
				status := "ok  "
				if drop > *threshold {
					status = "FAIL"
					failed = true
				}
				fmt.Printf("  %s %-24s %12.0f -> %12.0f tasks/s (%+.1f%%)\n",
					status, b.Name, baseV, candV, -drop*100)
			}
		}
		if !memGated {
			continue
		}
		memGate := func(metric string, baseN, candN *int64, limit float64) {
			if baseN == nil || *baseN <= 0 {
				// No baseline to gate against (absent field, or a zero
				// growth cannot be computed from).
				return
			}
			if candN == nil {
				// Absent in the candidate is a missing or renamed
				// field, not an improvement — fail loudly like the
				// rate gate does, or the gate silently stops gating.
				fmt.Printf("  FAIL %-24s missing %s in candidate\n", b.Name, metric)
				failed = true
				return
			}
			compared++
			growth := float64(*candN)/float64(*baseN) - 1
			status := "ok  "
			if growth > limit {
				status = "FAIL"
				failed = true
			}
			fmt.Printf("  %s %-24s %12d -> %12d %s (%+.1f%%)\n",
				status, b.Name, *baseN, *candN, metric, growth*100)
		}
		memGate("allocs/op", b.AllocsPerOp, c.AllocsPerOp, *allocThreshold)
		memGate("B/op", b.BytesPerOp, c.BytesPerOp, *bytesThreshold)
	}
	// Pre-trained-vs-cold pair gate, also candidate-internal:
	// PretrainedSweep runs the identical JOSS sweep ColdSweep runs,
	// over a Train-warmed plan cache instead of a fresh one. The hard
	// invariant is zero plan evaluations on the pre-trained row — a
	// claim API that re-searched trained keys (or a trainer that
	// stopped publishing plans) makes it non-zero and fails. The ns/op
	// ceiling is a loose parity guard on top: the rows differ only by
	// search and sampling work, so they must not diverge wildly, but
	// on a single-core runner the deleted work is a few percent of the
	// sweep and inside run-to-run noise (see PERF.md PR 9), so the
	// ceiling sits above 1. Gated only when the baseline carries both
	// rows (reports from before plan pre-training pass untouched).
	baseHasTrainPair := 0
	for _, b := range base.Benchmarks {
		if b.Name == "ColdSweep" || b.Name == "PretrainedSweep" {
			baseHasTrainPair++
		}
	}
	coldRow, haveCold := candBy["ColdSweep"]
	preRow, havePre := candBy["PretrainedSweep"]
	if baseHasTrainPair == 2 && haveCold && havePre &&
		coldRow.NsPerOp != nil && *coldRow.NsPerOp > 0 && preRow.NsPerOp != nil {
		compared++
		ratio := *preRow.NsPerOp / *coldRow.NsPerOp
		status := "ok  "
		if ratio > *pretrainRatio {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("  %s %-24s %.2fx cold ns/op (ceiling %.2fx)\n",
			status, "pretrained/cold time", ratio, *pretrainRatio)
		if evals, ok := preRow.Metrics["plan_evals_per_op"]; ok && evals != 0 {
			fmt.Printf("  FAIL %-24s %g plan evaluations per pre-trained sweep (want 0)\n",
				"pretrained searches", evals)
			failed = true
		}
	}
	// Metrics hot-path gate, candidate-internal and absolute: the
	// MetricsHotPath row (one counter increment plus one histogram
	// observation) must report exactly 0 allocs/op — instrumentation
	// that allocates on the serving path is a regression no matter
	// what the baseline says. Gated whenever the candidate carries the
	// row, so reports from before the observability layer pass.
	if hot, ok := candBy["MetricsHotPath"]; ok && hot.AllocsPerOp != nil {
		compared++
		status := "ok  "
		if *hot.AllocsPerOp != 0 {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("  %s %-24s %d allocs/op (must be 0)\n", status, "metrics hot path", *hot.AllocsPerOp)
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "perfgate: baseline carries no tasks_per_s metrics")
		os.Exit(2)
	}
	if failed {
		fmt.Println("perfgate: FAILED — throughput or warm-path allocations regressed beyond the thresholds")
		os.Exit(1)
	}
	fmt.Println("perfgate: passed")
}
