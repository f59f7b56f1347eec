package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"joss/internal/obs"
	"joss/internal/sched"
	"joss/internal/service"
	"joss/internal/taskrt"
)

const coldScale = 0.2

// coldScheds is the grid a restarted daemon pre-trains: every
// model-driven variant the paper evaluates.
var coldScheds = []string{"JOSS", "JOSS_NoMemDVFS", "STEER", "JOSS+EDP", "JOSS+MAXP", "JOSS+1.4X"}

// runColdStart is what a restarted daemon pays before it is warm. Each
// iteration starts a fresh daemon process (this binary in --daemon
// mode: service.DefaultConfig, service.New with an empty plan cache
// and cold arenas, service.NewHandler on a loopback listener),
// pre-trains the grid with /train, then sends one synchronous /sweep
// of that grid plus GRWS (the baseline the paper's ratios are
// normalised to) with plan sharing on, and stops the daemon. A process
// per iteration is what a restart is; it also keeps iterations apart,
// since a Session, once built, is never freed in-process (see
// retainedPerSession).
func runColdStart(b *bench) error {
	d, err := b.setUp(setupRepsShort, "", func(d *daemon) error {
		_, err := d.c.get("/healthz")
		b.op(err)
		return nil
	})
	if err != nil {
		return err
	}
	if _, err := d.stop(); err != nil {
		return err
	}

	followScheds := append([]string{"GRWS"}, coldScheds...)
	nCells := len(benchNames()) * len(followScheds)
	seeds := simSeeds(b.seed, 1)

	// firstOf holds, per simulation seed, the first iteration's answers
	// every later iteration with that seed must repeat.
	type firstOf struct {
		train  service.WireTrainResult
		res    service.WireSweepResult
		key    string
		image  []byte
		stores int
	}
	var (
		readys, rss, overTrain, overSweep []float64
		first                             = map[int64]firstOf{}
		trainImage                        []byte
		tasks, workerSec                  float64
		respBytes, responses              int
		total                             daemonState // Go runtime counters summed over daemons
	)
	t := newTally()
	readyBySeed := map[int64][]float64{}
	trainBySeed := map[int64][]float64{}
	start := time.Now()
	deadline := start.Add(b.window)
	// Whole cycles of the seed pool, so every run weighs the seeds alike.
	for i := 0; i == 0 || time.Now().Before(deadline) || i%len(seeds) != 0; i++ {
		seed := seeds[i%len(seeds)]
		want, seen := first[seed]
		t0 := time.Now()
		d, err := startDaemon("")
		if err != nil {
			return err
		}
		tr, tlat, err := d.c.train(service.WireTrainRequest{Schedulers: coldScheds, Scale: coldScale, Seed: int64p(seed)})
		trElapsed := tr.ElapsedSec
		tr.ElapsedSec = 0
		if err == nil && seen && tr != want.train {
			err = fmt.Errorf("iteration %d (seed %d): training %+v, first iteration %+v", i, seed, tr, want.train)
		}
		b.op(err)
		if i == 0 && b.traced {
			st, serr := d.state()
			if serr != nil {
				d.stop()
				return serr
			}
			trainImage = st.Plans
		}
		res, n, slat, serr := d.c.sweep(service.WireSweepRequest{Schedulers: followScheds, Scale: coldScale, Seed: int64p(seed)})
		ready := time.Since(t0)
		var st daemonState
		if serr == nil {
			serr = checkSweepShape(res, nCells, nCells)
		}
		if serr == nil {
			st, serr = d.state()
		}
		if serr == nil {
			key := reportsKey(res.Reports)
			switch {
			case !seen:
				if err == nil {
					first[seed] = firstOf{tr, res, key, st.Plans, st.PlanStores}
				}
			case key != want.key:
				serr = fmt.Errorf("iteration %d (seed %d): follow-up reports differ from the first iteration's", i, seed)
			case res.PlanEvals != want.res.PlanEvals:
				serr = fmt.Errorf("iteration %d (seed %d): follow-up plan_evals %d, first iteration %d", i, seed, res.PlanEvals, want.res.PlanEvals)
			case !bytes.Equal(st.Plans, want.image):
				serr = fmt.Errorf("iteration %d (seed %d): plan store image differs from the first iteration's", i, seed)
			}
		}
		b.op(serr)
		var pts []obs.Point
		if b.traced && err == nil && serr == nil {
			if pts, err = d.c.scrape(); err != nil {
				d.stop()
				return err
			}
		}
		peak, stopErr := d.stop()
		if stopErr != nil {
			return stopErr
		}
		if err != nil || serr != nil {
			continue
		}
		readys = append(readys, ready.Seconds()*1e3)
		readyBySeed[seed] = append(readyBySeed[seed], ready.Seconds()*1e3)
		trainBySeed[seed] = append(trainBySeed[seed], tlat.Seconds()*1e3)
		rss = append(rss, peak)
		tasks += simTasks(res, 1)
		if b.traced {
			t.add(nil, pts)
			workerSec += float64(res.Workers) * ready.Seconds()
			overTrain = append(overTrain, (tlat.Seconds()-trElapsed)*1e3)
			overSweep = append(overSweep, (slat.Seconds()-res.ElapsedSec)*1e3)
			respBytes += n
			responses++
			total.add(st)
		}
	}
	elapsed := time.Since(start).Seconds()
	if len(first) != len(seeds) {
		return fmt.Errorf("the window completed %d of the %d seeds' iterations", len(first), len(seeds))
	}
	// In pool order, so the geomean sums in the same order every run.
	var sets []map[string]map[string]service.WireReport
	for _, seed := range slices.Sorted(slices.Values(seeds)) {
		sets = append(sets, first[seed].res.Reports)
	}
	r, err := paperRatios(sets...)
	b.check(err)
	ref := first[seeds[0]]

	b.setE2E("op_ms_p50", seedMedian(readyBySeed), "ms")
	b.setE2E("requests_per_s", float64(2*len(readys))/elapsed, "1/s")
	b.setE2E("sim_tasks_per_s", tasks/elapsed, "1/s")
	b.setE2E("rss_peak_mb", median(rss), "MB")
	b.setRatios(r)
	b.note("ready_s_p50", seedMedian(readyBySeed)/1e3, "s")
	b.note("train_s_p50", seedMedian(trainBySeed)/1e3, "s")
	b.note("iterations", float64(len(readys)), "count")
	b.note("train_keys", float64(ref.train.Keys), "count")
	b.note("train_trained", float64(ref.train.Trained), "count")
	b.note("train_failed", float64(ref.train.Failed), "count")
	b.note("train_plan_evals", float64(ref.train.PlanEvals), "count")
	b.note("followup_plan_evals", float64(ref.res.PlanEvals), "count")

	if !b.traced {
		return nil
	}
	b.windowLayers(t, workerSec)
	b.goLayers(total, tasks)
	b.wireLayers(map[string][]float64{"train": overTrain, "sweep": overSweep}, respBytes, responses)
	b.setLayer("decide.plans_trained", float64(ref.train.Trained), "count")
	b.setLayer("decide.plans_failed", float64(ref.train.Failed), "count")
	b.setLayer("decide.plan_stores", float64(ref.stores), "count")
	b.setLayer("jobstore.bytes_per_request", 0, "B")
	retained, err := retainedPerSession(followScheds)
	if err != nil {
		return err
	}
	b.setLayer("service.retained_mb_per_session", retained, "MB")

	reqs := []*replayReq{
		{cells: gridCells(benchNames(), coldScheds), scale: coldScale, seed: seeds[0], repeats: 1, share: true,
			train: true, wantTrain: ref.train, wantPlans: trainImage},
		{cells: gridCells(benchNames(), followScheds), scale: coldScale, seed: seeds[0], repeats: 1, share: true,
			want: ref.res.Reports, wantEvals: ref.res.PlanEvals, wantPlans: ref.image},
	}
	// Every pass replays on a fresh configuration, session and replayer:
	// cold arenas and an empty plan cache, like each daemon.
	return b.replaySet(reqs, func() (*replayer, error) {
		s, err := localSession()
		if err != nil {
			return nil, err
		}
		return &replayer{sess: s, plans: sched.NewPlanCache()}, nil
	}, true)
}

// retainedPerSession measures, in this process, how much live heap a
// used and then discarded Session keeps: it builds sessions that each
// serve one follow-up-sized sweep, drops them, and compares the heap
// after a collection. A Session has no way to stop its dispatch
// workers, which keep it reachable, so today the figure is the whole
// session.
func retainedPerSession(scheds []string) (float64, error) {
	const n = 3
	heap0 := heapAfterGC()
	for i := 0; i < n; i++ {
		s, err := localSession()
		if err != nil {
			return 0, err
		}
		req := service.SweepRequest{Scale: coldScale, Seed: 1, Repeats: 1, SharePlans: true}
		for _, c := range gridCells(benchNames(), scheds) {
			label := c.label
			req.Jobs = append(req.Jobs, service.Job{Workload: c.wl, Label: label,
				Make: func() taskrt.Scheduler { return s.NewScheduler(label) }})
		}
		if _, err := s.Submit(req); err != nil {
			return 0, err
		}
	}
	return (heapAfterGC() - heap0) / n, nil
}

// heapAfterGC is the live heap in MB after a forced collection.
func heapAfterGC() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}
