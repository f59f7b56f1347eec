package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"joss/internal/sched"
	"joss/internal/service"
)

const (
	probeScale   = 0.05
	streamScale  = 0.2
	streamRepeat = 2
	// streamBench benchmarks per stream sweep: 7 sweeps split the 21
	// benchmarks exactly, so every round of sweeps does the same work
	// whatever the seed.
	streamBench = 3
	// serveSeed is the simulation seed of every serve-mixed request;
	// the workload seed orders the probes and groups the sweeps'
	// benchmarks.
	serveSeed = 1
	// The traced replay re-runs each client's first requests; the
	// counts it reports are therefore exact for a seed.
	replayProbes  = 48
	replayStreams = 7
)

// probe is one /run the prober sent, kept for the replay.
type probe struct {
	bench, sched string
	report       service.WireReport
	evals        int
}

// streamed is one stream sweep the sweeper sent, kept for the replay.
type streamed struct {
	benches []string
	res     service.WireSweepResult
}

// runServeMixed is online serving on a warm daemon: client 1 sends
// single-cell /run probes, client 2 background NDJSON stream sweeps,
// both closed-loop, against a session whose plan grids were trained in
// set-up and which journals every job.
func runServeMixed(b *bench) error {
	names := benchNames()
	perm := rand.New(rand.NewSource(b.seed*2 + 2)).Perm(len(names))
	journals, err := os.MkdirTemp(b.outDir, "journals-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(journals)
	var trained []service.WireTrainResult
	d, err := b.setUp(setupReps, journals, func(d *daemon) error {
		// Warm means the plan cache has converged: the /train grids
		// (probes and sweeps) are pre-trained, and one pass over every
		// distinct request the clients can send has run. Plan sharing is
		// on, so a plan trained lazily inside the window would change
		// later answers to the same request.
		trained = trained[:0]
		for _, scale := range []float64{probeScale, streamScale} {
			res, _, err := d.c.train(service.WireTrainRequest{Schedulers: service.SchedulerNames, Scale: scale, Seed: int64p(serveSeed)})
			b.op(err)
			trained = append(trained, res)
		}
		for i := 0; i < len(names)/streamBench; i++ {
			_, _, _, err := d.c.sweep(streamRequest(serveSeed, streamBenches(names, perm, i)))
			b.op(err)
		}
		for _, bn := range names {
			for _, sn := range service.SchedulerNames {
				_, _, _, err := d.c.run(probeRequest(serveSeed, bn, sn))
				b.op(err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer d.stop()
	c1, c2 := d.c, newClient(d.url)
	defer c2.close()

	var w window
	var journal0 int64
	if b.traced {
		if w, err = d.openWindow(); err != nil {
			return err
		}
		journal0 = fileSize(d.journal)
	}

	var (
		mu        sync.Mutex // guards the tallies both clients update
		probeLats []float64
		streamLat []float64
		overhead  = map[string][]float64{}
		respBytes int
		responses int
		tasks     float64
		probes    []probe
		streams   []streamed
		workers   int // the stream sweeps' worker share: the pool size
		byBench   = map[string]map[string]service.WireReport{}
	)
	// The window runs in whole rounds. In a round the sweeper sends one
	// cycle of stream sweeps (the same requests every round, covering
	// all benchmarks) while the prober probes until the sweeper is done.
	// Whole rounds give every run the same sweep work.
	roundSweeps := len(names) / streamBench
	probeOrder := rand.New(rand.NewSource(b.seed*2 + 1)).Perm(len(names) * len(service.SchedulerNames))
	probeSeen := map[string]service.WireReport{}
	streamSeen := map[string]string{}
	nProbes, nStreams := 0, 0 // requests sent, across rounds
	start := time.Now()
	deadline := start.Add(b.window)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		var sweeperDone atomic.Bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // client 1: single-cell probes
			defer wg.Done()
			// Probes walk a seeded permutation of all benchmark × scheduler
			// cells, so every run probes each cell about equally often.
			nSched := len(service.SchedulerNames)
			for first := true; first || !sweeperDone.Load(); first = false {
				i := nProbes
				nProbes++
				k := probeOrder[i%len(probeOrder)]
				bn, sn := names[k/nSched], service.SchedulerNames[k%nSched]
				res, n, lat, err := c1.run(probeRequest(serveSeed, bn, sn))
				key := bn + "/" + sn
				if err == nil {
					if want, ok := probeSeen[key]; ok && want != res.Report {
						err = fmt.Errorf("probe %d (%s): report differs from the first response to the same request", i, key)
					} else if res.Report.Tasks == 0 {
						err = fmt.Errorf("probe %d (%s): empty report", i, key)
					}
				}
				b.op(err)
				if err != nil {
					continue
				}
				if _, ok := probeSeen[key]; !ok {
					probeSeen[key] = res.Report
				}
				mu.Lock()
				probeLats = append(probeLats, lat.Seconds()*1e3)
				overhead["run"] = append(overhead["run"], (lat.Seconds()-res.ElapsedSec)*1e3)
				respBytes += n
				responses++
				tasks += float64(res.Report.Tasks)
				if len(probes) < replayProbes {
					probes = append(probes, probe{bn, sn, res.Report, res.PlanEvals})
				}
				mu.Unlock()
			}
		}()
		go func() { // client 2: background stream sweeps
			defer wg.Done()
			defer sweeperDone.Store(true)
			for i := 0; i < roundSweeps; i++ {
				benches := streamBenches(names, perm, i)
				res, n, lat, err := c2.stream(streamRequest(serveSeed, benches), len(benches)*len(service.SchedulerNames))
				key := strings.Join(benches, ",")
				if err == nil {
					err = checkSweepShape(res, len(benches)*len(service.SchedulerNames), len(benches)*len(service.SchedulerNames)*streamRepeat)
				}
				if err == nil {
					rk := reportsKey(res.Reports)
					if want, ok := streamSeen[key]; ok && want != rk {
						err = fmt.Errorf("stream sweep %d (%s): reports differ from the first response to the same request", nStreams, key)
					} else if !ok {
						streamSeen[key] = rk
					}
				}
				nStreams++
				b.op(err)
				if err != nil {
					continue
				}
				mu.Lock()
				streamLat = append(streamLat, lat.Seconds()*1e3)
				workers = max(workers, res.Workers)
				overhead["stream"] = append(overhead["stream"], (lat.Seconds()-res.ElapsedSec)*1e3)
				respBytes += n
				responses++
				tasks += simTasks(res, streamRepeat)
				for bn, m := range res.Reports {
					if _, ok := byBench[bn]; !ok {
						byBench[bn] = m
					}
				}
				if len(streams) < replayStreams {
					streams = append(streams, streamed{benches, res})
				}
				mu.Unlock()
			}
		}()
		wg.Wait()
	}
	elapsed := time.Since(start).Seconds()
	if len(probeLats) == 0 || len(streamLat) == 0 {
		return fmt.Errorf("a client completed no request")
	}

	if b.traced {
		if err := b.closeWindow(d, w, workers, elapsed, tasks); err != nil {
			return err
		}
		b.wireLayers(overhead, respBytes, responses)
		b.setLayer("decide.plans_trained", float64(trained[0].Trained+trained[1].Trained), "count")
		b.setLayer("decide.plans_failed", float64(trained[0].Failed+trained[1].Failed), "count")
		b.setLayer("jobstore.bytes_per_request", float64(fileSize(d.journal)-journal0)/float64(responses), "B")
	}
	rss, err := d.stop()
	if err != nil {
		return err
	}
	b.setE2E("rss_peak_mb", rss, "MB")

	// A round's stream sweeps take the benchmarks 3 at a time through a
	// seeded permutation of all 21, so every round covers them all.
	if len(byBench) != len(names) {
		b.check(fmt.Errorf("stream sweeps covered %d of %d benchmarks", len(byBench), len(names)))
	}
	r, err := paperRatios(byBench)
	b.check(err)

	b.setE2E("op_ms_p50", quantile(probeLats, 0.5), "ms")
	b.setE2E("requests_per_s", float64(len(probeLats)+len(streamLat))/elapsed, "1/s")
	b.setE2E("sim_tasks_per_s", tasks/elapsed, "1/s")
	b.setRatios(r)
	b.note("run_ms_p50", quantile(probeLats, 0.5), "ms")
	b.note("run_ms_p90", quantile(probeLats, 0.9), "ms")
	b.note("stream_ms_p50", quantile(streamLat, 0.5), "ms")
	b.note("probes", float64(len(probeLats)), "count")
	b.note("stream_sweeps", float64(len(streamLat)), "count")

	if !b.traced {
		return nil
	}
	var reqs []*replayReq
	for _, p := range probes {
		wl, _, _ := service.FindWorkload(p.bench)
		reqs = append(reqs, &replayReq{cells: []cellSpec{{wl, p.sched}}, scale: probeScale, seed: serveSeed,
			repeats: 1, share: true,
			want:      map[string]map[string]service.WireReport{p.bench: {p.sched: p.report}},
			wantEvals: p.evals})
	}
	for _, st := range streams {
		reqs = append(reqs, &replayReq{cells: gridCells(st.benches, service.SchedulerNames),
			scale: streamScale, seed: serveSeed, repeats: streamRepeat, share: true,
			want: st.res.Reports, wantEvals: st.res.PlanEvals})
	}
	local, err := localSession()
	if err != nil {
		return err
	}
	return b.replaySet(reqs, func() (*replayer, error) {
		pc := sched.NewPlanCache()
		// The replay's plan cache starts from the warm state.
		if _, err := pc.Load(bytes.NewReader(w.state.Plans)); err != nil {
			return nil, err
		}
		return &replayer{sess: local, plans: pc}, nil
	}, false)
}

func probeRequest(seed int64, bench, sched string) service.WireRunRequest {
	return service.WireRunRequest{Bench: bench, Sched: sched, Scale: probeScale, Seed: int64p(seed), Repeats: 1}
}

func streamRequest(seed int64, benches []string) service.WireSweepRequest {
	return service.WireSweepRequest{Benchmarks: benches, Scale: streamScale, Seed: int64p(seed), Repeats: streamRepeat}
}

// streamBenches is the i-th stream sweep's benchmark set: the next
// streamBench entries of the seeded permutation, wrapping around.
func streamBenches(names []string, perm []int, i int) []string {
	out := make([]string, streamBench)
	for j := range out {
		out[j] = names[perm[(i*streamBench+j)%len(names)]]
	}
	return out
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}
