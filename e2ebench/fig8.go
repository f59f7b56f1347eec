package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"joss/internal/service"
	"joss/internal/taskrt"
)

const (
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median. Set-ups shorter than a tenth of a second are repeated
	// more (setupRepsShort), since one of them reads mostly host noise.
	setupReps      = 5
	setupRepsShort = 15

	fig8Scale   = 0.2
	fig8Repeats = 3
	// Figure 8 geomeans of total energy over GRWS at scale 0.01, seed 1,
	// one repeat, no plan sharing (pinned by the repository's golden
	// tests).
	pinnedJOSS  = 0.85415931561877911
	pinnedSTEER = 0.92898229038247726
	// freshCells is how many served cells are re-run on a fresh
	// taskrt.Runtime after the window.
	freshCells = 3
)

// runFig8Batch is the researcher's batch job: one closed-loop client
// sending the full Figure 8 grid (21 benchmarks × the paper's six
// schedulers) as synchronous /sweep requests.
func runFig8Batch(b *bench) error {
	d, err := b.setUp(setupRepsShort, "", func(d *daemon) error {
		// The pinned golden sweep is both the output check and the
		// warm-up of the fresh session.
		res, _, _, err := d.c.sweep(service.WireSweepRequest{Scale: 0.01, Seed: int64p(1), SharePlans: boolp(false)})
		b.op(err)
		if err == nil {
			b.check(checkPinned(res.Reports))
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer d.stop()

	seeds := simSeeds(b.seed, fig8Repeats)
	var w window
	if b.traced {
		if w, err = d.openWindow(); err != nil {
			return err
		}
	}
	var lats, overhead []float64
	latsBySeed := map[int64][]float64{}
	first := map[int64]service.WireSweepResult{}
	firstKey := map[int64]string{}
	tasks := 0.0
	respBytes := 0
	start := time.Now()
	deadline := start.Add(b.window)
	// Whole cycles of the seed pool, so every run weighs the seeds alike.
	for i := 0; i == 0 || time.Now().Before(deadline) || i%len(seeds) != 0; i++ {
		seed := seeds[i%len(seeds)]
		res, n, lat, err := d.c.sweep(service.WireSweepRequest{Scale: fig8Scale, Seed: int64p(seed),
			Repeats: fig8Repeats, SharePlans: boolp(false)})
		if err == nil {
			key := reportsKey(res.Reports)
			want, seen := first[seed]
			switch {
			case !seen:
				if err = checkSweepShape(res, 126, 126*fig8Repeats); err == nil {
					first[seed], firstKey[seed] = res, key
				}
			case key != firstKey[seed]:
				err = fmt.Errorf("sweep %d (seed %d): reports differ from the first sweep's", i, seed)
			case res.PlanEvals != want.PlanEvals || res.Units != want.Units:
				err = fmt.Errorf("sweep %d (seed %d): plan_evals/units %d/%d, first sweep %d/%d",
					i, seed, res.PlanEvals, res.Units, want.PlanEvals, want.Units)
			}
		}
		b.op(err)
		if err != nil {
			continue
		}
		lats = append(lats, lat.Seconds()*1e3)
		latsBySeed[seed] = append(latsBySeed[seed], lat.Seconds()*1e3)
		overhead = append(overhead, (lat.Seconds()-res.ElapsedSec)*1e3)
		tasks += simTasks(res, fig8Repeats)
		respBytes += n
	}
	elapsed := time.Since(start).Seconds()
	if len(lats) == 0 {
		return fmt.Errorf("no sweep succeeded")
	}
	if b.traced {
		if err := b.closeWindow(d, w, first[seeds[0]].Workers, elapsed, tasks); err != nil {
			return err
		}
		b.wireLayers(map[string][]float64{"sweep": overhead}, respBytes, len(lats))
		b.setLayer("decide.plans_trained", 0, "count")
		b.setLayer("decide.plans_failed", 0, "count")
		b.setLayer("jobstore.bytes_per_request", 0, "B")
	}
	rss, err := d.stop()
	if err != nil {
		return err
	}
	b.setE2E("rss_peak_mb", rss, "MB")
	local, err := localSession()
	if err != nil {
		return err
	}

	if len(first) != len(seeds) {
		b.check(fmt.Errorf("the window answered %d of the %d seeds' sweeps", len(first), len(seeds)))
	}
	// In pool order, so the geomean sums in the same order every run.
	var sets []map[string]map[string]service.WireReport
	for _, seed := range slices.Sorted(slices.Values(seeds)) {
		sets = append(sets, first[seed].Reports)
	}
	r, err := paperRatios(sets...)
	b.check(err)
	ref := first[seeds[0]]
	b.check(b.checkFresh(local, seeds[0], ref.Reports))

	b.setE2E("op_ms_p50", seedMedian(latsBySeed), "ms")
	b.setE2E("requests_per_s", float64(len(lats))/elapsed, "1/s")
	b.setE2E("sim_tasks_per_s", tasks/elapsed, "1/s")
	b.setRatios(r)
	b.note("sweep_s_p50", seedMedian(latsBySeed)/1e3, "s")
	b.note("sweeps", float64(len(lats)), "count")
	b.note("plan_evals_first_seed", float64(ref.PlanEvals), "count")
	b.note("units_per_sweep", float64(ref.Units), "count")

	if !b.traced {
		return nil
	}
	cells := gridCells(benchNames(), service.SchedulerNames)
	reqs := []*replayReq{{cells: cells, scale: fig8Scale, seed: seeds[0], repeats: fig8Repeats,
		want: ref.Reports, wantEvals: ref.PlanEvals}}
	return b.replaySet(reqs, func() (*replayer, error) {
		return &replayer{sess: local}, nil
	}, false)
}

// checkPinned compares a scale-0.01 seed-1 grid with the pinned
// Figure 8 geomeans, bit for bit.
func checkPinned(reps map[string]map[string]service.WireReport) error {
	j, err := geomeanOver([]map[string]map[string]service.WireReport{reps}, "JOSS", "GRWS", totalJ)
	if err != nil {
		return err
	}
	s, err := geomeanOver([]map[string]map[string]service.WireReport{reps}, "STEER", "GRWS", totalJ)
	if err != nil {
		return err
	}
	if j != pinnedJOSS || s != pinnedSTEER {
		return fmt.Errorf("pinned Figure 8 geomeans: JOSS %.17g STEER %.17g, want %.17g %.17g", j, s, pinnedJOSS, pinnedSTEER)
	}
	return nil
}

// checkSweepShape checks a sweep answered every cell and unit.
func checkSweepShape(res service.WireSweepResult, cells, units int) error {
	n := 0
	for _, m := range res.Reports {
		n += len(m)
	}
	if n != cells || res.Units != units || res.UnitsDone != units || res.Cancelled {
		return fmt.Errorf("sweep answered %d cells, %d/%d units (cancelled %v), want %d cells and %d units",
			n, res.UnitsDone, res.Units, res.Cancelled, cells, units)
	}
	return nil
}

// checkFresh re-runs a seeded sample of served cells on fresh runtimes
// and fresh schedulers, one runtime per repeat, and compares the mean
// reports with the served ones.
func (b *bench) checkFresh(sess *service.Session, seed int64, served map[string]map[string]service.WireReport) error {
	rng := rand.New(rand.NewSource(b.seed))
	cells := gridCells(benchNames(), service.SchedulerNames)
	for i := 0; i < freshCells; i++ {
		c := cells[rng.Intn(len(cells))]
		g := c.wl.Build(fig8Scale)
		reps := make([]taskrt.Report, fig8Repeats)
		for r := range reps {
			opt := taskrt.DefaultOptions()
			opt.Seed = seed + int64(r)
			reps[r] = taskrt.New(sess.Oracle(), sess.NewScheduler(c.label), opt).Run(g)
		}
		if got := wireReport(taskrt.MeanReport(reps)); got != served[c.wl.Name][c.label] {
			return fmt.Errorf("cell %s/%s on a fresh runtime: %+v, served %+v", c.wl.Name, c.label, got, served[c.wl.Name][c.label])
		}
	}
	return nil
}

// gridCells expands benchmarks × schedulers in the service's cell
// order.
func gridCells(benches, scheds []string) []cellSpec {
	var cells []cellSpec
	for _, bn := range benches {
		wl, _, ok := service.FindWorkload(bn)
		if !ok {
			panic("unknown benchmark " + bn)
		}
		for _, sn := range scheds {
			cells = append(cells, cellSpec{wl, sn})
		}
	}
	return cells
}
