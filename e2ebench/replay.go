package main

// The traced replay: a request's run units re-executed in-process
// through the layers' public functions, in the per-unit order of
// service.runUnit — workloads.Config.BuildReuse when the cell changes,
// scheduler recycling (ModelSched.Reset / sched.RunResetter),
// taskrt.New or Runtime.Reset, Runtime.Run, then taskrt.MeanReport
// per cell — with every call timed from here. The scheduler runs
// behind a forwarding decorator that times Decide/TaskDone/OnSteal.
// Spans (name, start, end, parent, request id) are kept in memory and
// written out when the replay ends; a layer's self time is its spans'
// durations minus their children's.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"joss/internal/dag"
	"joss/internal/sched"
	"joss/internal/service"
	"joss/internal/taskrt"
	"joss/internal/workloads"
)

// cellSpec is one ⟨benchmark, scheduler⟩ cell of a replayed request.
type cellSpec struct {
	wl    workloads.Config
	label string
}

// replayReq is one served request, described well enough to re-run
// its units and compare the outcome with what the wire returned.
type replayReq struct {
	cells   []cellSpec
	scale   float64
	seed    int64
	repeats int
	share   bool
	// train marks a /train grid: rounds of results-discarded trainer
	// units (service.Session.Train's round driver, re-enacted with the
	// public PlanCache claim API).
	train bool

	// What the server answered: per-cell reports and plan evaluations
	// (sweeps and runs), or the training tally.
	want      map[string]map[string]service.WireReport
	wantEvals int
	wantTrain service.WireTrainResult
	// wantPlans, when set, is the server's plan store image right
	// after the request.
	wantPlans []byte
}

// span is one timed call in the replay.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"` // index into the span list, -1 = root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds a traced replay's spans and layer tallies.
type tracer struct {
	t0    time.Time
	spans []span

	decideNs, decideCalls int64
	buildCalls            int
	buildAllocs           uint64
	runs                  int
	events, tasks         int64
	resetNs               int64
	runAllocs             uint64
	mergeCells            int
	evals                 int
	modelErr              errHist

	dec  timedSched
	decS timedStealSched
	ms   runtime.MemStats
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.dec.tr = t
	t.decS.timedSched = &t.dec
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(name string, req, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = t.now() }

func (t *tracer) mallocs() uint64 {
	runtime.ReadMemStats(&t.ms)
	return t.ms.Mallocs
}

// selfTimes sums each span name's self time (duration minus the
// durations of its direct children).
func (t *tracer) selfTimes() map[string]int64 {
	self := make(map[string]int64)
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	return self
}

// errHist is a fixed-width histogram of model prediction errors in
// percent (0.05% buckets up to 500%, one overflow bucket).
type errHist struct {
	counts [10001]int64
	n      int64
}

func (h *errHist) add(pct float64) {
	i := int(pct / 0.05)
	if i > len(h.counts)-1 || i < 0 {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.n++
}

// median interpolates within the bucket holding the middle sample.
func (h *errHist) median() float64 {
	if h.n == 0 {
		return 0
	}
	half := float64(h.n) / 2
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= half {
			return 0.05 * (float64(i) + (half-cum)/float64(c))
		}
		cum += float64(c)
	}
	return 0.05 * float64(len(h.counts))
}

// timedSched forwards the taskrt.Scheduler interface to the wrapped
// scheduler, timing Decide and TaskDone, and records the model's
// prediction error on executions of planned kernels.
type timedSched struct {
	inner taskrt.Scheduler
	tr    *tracer
	ms    *sched.ModelSched // inner, when model-driven
	plans *sched.PlanCache  // where ms's selected plans land
	scale float64
	pred  []float64 // per kernel index: predicted seconds, 0 = not looked up, <0 = none
}

func (d *timedSched) Name() string              { return d.inner.Name() }
func (d *timedSched) Attach(rt *taskrt.Runtime) { d.inner.Attach(rt) }
func (d *timedSched) Scope() taskrt.StealScope  { return d.inner.Scope() }

func (d *timedSched) Decide(t *dag.Task) taskrt.Decision {
	start := time.Now()
	dec := d.inner.Decide(t)
	d.tr.decideNs += int64(time.Since(start))
	d.tr.decideCalls++
	return dec
}

func (d *timedSched) TaskDone(rec taskrt.ExecRecord) {
	var cfgOK bool
	var nc, fc, fm int
	if d.ms != nil {
		cfg, ok := d.ms.SelectedConfig(rec.Task.Kernel)
		cfgOK, nc, fc, fm = ok, cfg.NC, cfg.FC, cfg.FM
	}
	start := time.Now()
	d.inner.TaskDone(rec)
	d.tr.decideNs += int64(time.Since(start))
	d.tr.decideCalls++
	// Judge only executions that ran as planned (the scheduler's own
	// drift rule): partial recruitment or coordinated frequencies are
	// not model error.
	if cfgOK && rec.NCActual == nc && rec.FCStart == fc && rec.FMStart == fm {
		if p := d.predicted(rec.Task.Kernel); p > 0 {
			d.tr.modelErr.add(100 * math.Abs(rec.Elapsed()-p) / p)
		}
	}
}

// predicted returns the plan's PredictedSec for a kernel (cached per
// run), or a negative value when the plan cache has none.
func (d *timedSched) predicted(k *dag.Kernel) float64 {
	for len(d.pred) <= k.Index {
		d.pred = append(d.pred, 0)
	}
	if d.pred[k.Index] == 0 {
		d.pred[k.Index] = -1
		if cp, ok := d.plans.Lookup(d.ms.PlanKeyAt(k, d.scale)); ok && cp.PredictedSec > 0 {
			d.pred[k.Index] = cp.PredictedSec
		}
	}
	return d.pred[k.Index]
}

// timedStealSched is the decorator for schedulers that observe steals:
// it must forward taskrt.StealObserver too, and only such schedulers
// may be wrapped in it (the runtime type-asserts the interface).
type timedStealSched struct{ *timedSched }

func (d timedStealSched) OnSteal(thief, victim int, t *dag.Task) {
	start := time.Now()
	d.inner.(taskrt.StealObserver).OnSteal(thief, victim, t)
	d.tr.decideNs += int64(time.Since(start))
	d.tr.decideCalls++
}

// wrap installs the decorator around sc for one unit.
func (t *tracer) wrap(sc taskrt.Scheduler, ms *sched.ModelSched, plans *sched.PlanCache, scale float64) taskrt.Scheduler {
	d := &t.dec
	d.inner, d.ms, d.plans, d.scale = sc, ms, plans, scale
	d.pred = d.pred[:0]
	if _, ok := sc.(taskrt.StealObserver); ok {
		return t.decS
	}
	return d
}

// replayer owns one worker's worth of recycled state, like a service
// worker: a runtime, a graph arena and a per-label scheduler cache.
type replayer struct {
	sess   *service.Session // scheduler factory, models and oracle
	plans  *sched.PlanCache // the cache share_plans units read and write
	tr     *tracer          // nil = untraced
	rt     *taskrt.Runtime
	g      *dag.Graph
	scheds map[string]taskrt.Scheduler
	cancel atomic.Bool // never set: the service always runs units with a cancel flag
}

// scheduler mirrors the service's per-label recycling: model
// schedulers are rewound with Reset and re-attached to the plan cache
// when sharing is on, RunResetters with ResetRun; others are built
// fresh per unit.
func (r *replayer) scheduler(label string, q *replayReq) taskrt.Scheduler {
	sc, cached := r.scheds[label]
	switch cs := sc.(type) {
	case *sched.ModelSched:
		cs.Reset(r.sess.Set())
	case sched.RunResetter:
		cs.ResetRun()
	}
	if !cached {
		sc = r.sess.NewScheduler(label)
		switch sc.(type) {
		case *sched.ModelSched, sched.RunResetter:
			if r.scheds == nil {
				r.scheds = make(map[string]taskrt.Scheduler)
			}
			r.scheds[label] = sc
		}
	}
	if ms, ok := sc.(*sched.ModelSched); ok && q.share {
		ms.SetPlanCache(r.plans, q.scale)
	}
	return sc
}

// build rebuilds the cell's workload into the replayer's arena.
func (r *replayer) build(req, parent int, c cellSpec, scale float64) {
	t := r.tr
	if t == nil {
		r.g = c.wl.BuildReuse(r.g, scale)
		return
	}
	m0 := t.mallocs()
	sp := t.begin("build", req, parent)
	r.g = c.wl.BuildReuse(r.g, scale)
	t.end(sp)
	t.buildAllocs += t.mallocs() - m0
	t.buildCalls++
}

// unit runs one seeded repeat of the built cell and returns its report
// and plan evaluations. trainer, when non-nil, is the cell's cancel
// flag, tripped by the model scheduler's completion hook (the
// service's trainer units).
func (r *replayer) unit(req, parent int, c cellSpec, q *replayReq, seed int64, trainer *atomic.Bool) (taskrt.Report, int) {
	sc := r.scheduler(c.label, q)
	ms, _ := sc.(*sched.ModelSched)
	opt := taskrt.DefaultOptions()
	opt.Seed = seed
	opt.Cancel = &r.cancel
	if trainer != nil {
		opt.Cancel = trainer
		if ms != nil {
			ms.SetCompletionHook(func() { trainer.CompareAndSwap(false, true) })
		}
	}
	t := r.tr
	if t != nil {
		plans := r.plans
		if ms != nil && !q.share {
			// A unit-private cache only gives the model-error probe
			// the selected plans' predictions; with a fresh cache per
			// run no kernel can adopt a plan, so the run is unchanged
			// (the replay's byte-identity check covers this).
			plans = sched.NewPlanCache()
			ms.SetPlanCache(plans, q.scale)
		}
		sc = t.wrap(sc, ms, plans, q.scale)
	}
	var m0 uint64
	var sp int
	if t != nil {
		m0 = t.mallocs()
		sp = t.begin("reset", req, parent)
	}
	if r.rt == nil {
		r.rt = taskrt.New(r.sess.Oracle(), sc, opt)
	} else {
		r.rt.Sched = sc
		r.rt.Opt = opt
		r.rt.Reset(r.g)
	}
	var d0 int64
	if t != nil {
		t.end(sp)
		t.resetNs += t.spans[sp].End - t.spans[sp].Start
		sp = t.begin("run", req, parent)
		d0 = t.decideNs
	}
	rep := r.rt.Run(r.g)
	if t != nil {
		t.end(sp)
		// Decide/TaskDone time is one aggregate child of the run span.
		run := t.spans[sp]
		t.spans = append(t.spans, span{Name: "decide", Req: req, Parent: sp,
			Start: run.Start, End: run.Start + t.decideNs - d0})
		t.runAllocs += t.mallocs() - m0
		t.runs++
		t.events += int64(rep.Stats.Events)
		t.tasks += int64(rep.Stats.TasksExecuted)
	}
	evals := 0
	if ms != nil {
		evals = ms.TotalEvals
	}
	if t != nil {
		t.evals += evals
	}
	return rep, evals
}

// wireReport mirrors the service's report conversion.
func wireReport(rep taskrt.Report) service.WireReport {
	en := service.EnergyOf(rep)
	return service.WireReport{
		Scheduler:    rep.Scheduler,
		MakespanSec:  rep.MakespanSec,
		CPUJ:         en.CPUJ,
		MemJ:         en.MemJ,
		TotalJ:       en.TotalJ(),
		Samples:      rep.Samples,
		Tasks:        rep.Stats.TasksExecuted,
		Steals:       rep.Stats.Steals,
		Recruitments: rep.Stats.Recruitments,
		FreqRequests: rep.Stats.FreqRequests,
	}
}

// replayOutcome is what one request's replay produced.
type replayOutcome struct {
	reports map[string]map[string]service.WireReport
	evals   int
	trained int
	failed  int
	// plans is the replay cache's store image after the request.
	plans []byte
}

// request replays one request and returns its outcome.
func (r *replayer) request(id int, q *replayReq) replayOutcome {
	t := r.tr
	root := -1
	if t != nil {
		root = t.begin("request", id, -1)
		defer t.end(root)
	}
	var out replayOutcome
	if q.train {
		out = r.trainGrid(id, root, q)
	} else {
		out.reports = make(map[string]map[string]service.WireReport)
		reps := make([]taskrt.Report, q.repeats)
		for _, c := range q.cells {
			r.build(id, root, c, q.scale)
			for rep := range reps {
				var ev int
				reps[rep], ev = r.unit(id, root, c, q, q.seed+int64(rep), nil)
				out.evals += ev
			}
			sp := -1
			if t != nil {
				sp = t.begin("merge", id, root)
			}
			wr := wireReport(taskrt.MeanReport(reps))
			if t != nil {
				// Encoding the cell is the wire half of the merge.
				_, _ = json.Marshal(wr)
				t.end(sp)
				t.mergeCells++
			}
			if out.reports[c.wl.Name] == nil {
				out.reports[c.wl.Name] = make(map[string]service.WireReport)
			}
			out.reports[c.wl.Name][c.label] = wr
		}
	}
	if r.plans != nil {
		var buf bytes.Buffer
		if err := r.plans.Save(&buf); err == nil {
			out.plans = buf.Bytes()
		}
	}
	return out
}

// trainGrid re-enacts Session.Train's round driver: each round packs
// cells with pairwise disjoint untrained key sets, runs one trainer
// unit per cell (seed, scale, repeats 1, plan sharing on), and then
// resolves the round's keys as trained or failed; overlapping cells
// defer to the next round and adopt what the earlier round stored.
func (r *replayer) trainGrid(id, root int, q *replayReq) replayOutcome {
	var out replayOutcome
	type tcell struct {
		c    cellSpec
		keys []sched.PlanKey
	}
	var cells []tcell
	var g *dag.Graph
	for _, c := range q.cells {
		ms, ok := r.sess.NewScheduler(c.label).(*sched.ModelSched)
		if !ok {
			continue
		}
		g = c.wl.BuildReuse(g, q.scale)
		var keys []sched.PlanKey
		for _, k := range g.Kernels {
			kn := dag.Kernel{Name: k.Name, Demand: k.Demand}
			keys = append(keys, ms.PlanKeyAt(&kn, q.scale))
		}
		cells = append(cells, tcell{c, keys})
	}
	seen := make(map[sched.PlanKey]bool)
	pending := cells
	for len(pending) > 0 {
		claimed := make(map[sched.PlanKey]bool)
		var round, deferred []tcell
		var acquired [][]sched.PlanKey
		for _, c := range pending {
			overlap := false
			for _, k := range c.keys {
				if claimed[k] {
					overlap = true
					break
				}
			}
			if overlap {
				deferred = append(deferred, c)
				continue
			}
			var acq []sched.PlanKey
			for _, k := range c.keys {
				if seen[k] {
					continue
				}
				if _, ok := r.plans.Lookup(k); ok {
					seen[k] = true
				} else {
					acq = append(acq, k)
				}
			}
			if len(acq) == 0 {
				continue
			}
			round = append(round, c)
			acquired = append(acquired, acq)
			for _, k := range acq {
				claimed[k] = true
			}
		}
		if len(round) == 0 {
			break
		}
		for _, c := range round {
			r.build(id, root, c.c, q.scale)
			var stop atomic.Bool
			_, ev := r.unit(id, root, c.c, q, q.seed, &stop)
			out.evals += ev
		}
		for _, ks := range acquired {
			for _, k := range ks {
				seen[k] = true
				if _, ok := r.plans.Lookup(k); ok {
					out.trained++
				} else {
					out.failed++
				}
			}
		}
		pending = deferred
	}
	return out
}

// replaySet replays reqs three times — untraced as reference (and, for
// warm workloads, to warm the arenas), traced, and untraced again for
// the overhead baseline — checks every outcome against what the server
// answered and the traced pass against the untraced one, and reports
// the per-layer metrics. newReplayer returns a replayer whose plan
// cache starts from the server's state before the first request; cold
// workloads also start each pass on cold arenas.
func (b *bench) replaySet(reqs []*replayReq, newReplayer func() (*replayer, error), cold bool) error {
	var prev *replayer
	pass := func(tr *tracer) ([]replayOutcome, time.Duration, error) {
		r, err := newReplayer()
		if err != nil {
			return nil, 0, err
		}
		if prev != nil && !cold {
			// Warm workloads keep the previous pass's runtime, graph
			// arena and schedulers, as a daemon's workers keep theirs.
			r.rt, r.g, r.scheds = prev.rt, prev.g, prev.scheds
		}
		prev = r
		r.tr = tr
		start := time.Now()
		outs := make([]replayOutcome, len(reqs))
		for i, q := range reqs {
			outs[i] = r.request(i, q)
		}
		return outs, time.Since(start), nil
	}
	ref, _, err := pass(nil)
	if err != nil {
		return err
	}
	for i, q := range reqs {
		b.check(compareServed(i, q, ref[i]))
	}
	tr := newTracer()
	traced, tracedDur, err := pass(tr)
	if err != nil {
		return err
	}
	_, plainDur, err := pass(nil)
	if err != nil {
		return err
	}
	for i := range reqs {
		if reportsKey(traced[i].reports) != reportsKey(ref[i].reports) || traced[i].evals != ref[i].evals ||
			!bytes.Equal(traced[i].plans, ref[i].plans) {
			b.check(fmt.Errorf("replay request %d: the traced replay differs from the untraced one", i))
		}
	}

	// Shares are of the time spent inside the layers' calls; the
	// replay's own bookkeeping (request self time) is left out.
	self := tr.selfTimes()
	total := 0.0
	for _, n := range []string{"build", "decide", "reset", "run", "merge"} {
		total += float64(self[n])
	}
	share := func(names ...string) float64 {
		s := 0.0
		for _, n := range names {
			s += float64(self[n])
		}
		if total == 0 {
			return 0
		}
		return s / total
	}
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	b.setLayer("build.calls", float64(tr.buildCalls), "count")
	b.setLayer("build.us_per_call", per(float64(self["build"])/1e3, tr.buildCalls), "us")
	b.setLayer("build.allocs_per_call", per(float64(tr.buildAllocs), tr.buildCalls), "count")
	b.setLayer("build.share", share("build"), "ratio")
	b.setLayer("decide.calls", float64(tr.decideCalls), "count")
	b.setLayer("decide.ns_per_call", per(float64(tr.decideNs), int(tr.decideCalls)), "ns")
	b.setLayer("decide.share", share("decide"), "ratio")
	b.setLayer("decide.plan_evals", float64(tr.evals), "count")
	b.setLayer("decide.model_err_pct_p50", tr.modelErr.median(), "%")
	b.setLayer("simulate.runs", float64(tr.runs), "count")
	b.setLayer("simulate.events", float64(tr.events), "count")
	b.setLayer("simulate.tasks", float64(tr.tasks), "count")
	b.setLayer("simulate.ns_per_event", per(float64(self["run"]), int(tr.events)), "ns")
	b.setLayer("simulate.reset_us", per(float64(tr.resetNs)/1e3, tr.runs), "us")
	b.setLayer("simulate.allocs_per_run", per(float64(tr.runAllocs), tr.runs), "count")
	b.setLayer("simulate.share", share("run", "reset"), "ratio")
	b.setLayer("wire.merge_us_per_cell", per(float64(self["merge"])/1e3, tr.mergeCells), "us")
	b.setLayer("trace.requests_replayed", float64(len(reqs)), "count")
	b.setLayer("trace.overhead_pct", 100*(tracedDur.Seconds()-plainDur.Seconds())/plainDur.Seconds(), "%")
	b.note("trace.replay_traced_s", tracedDur.Seconds(), "s")
	b.note("trace.replay_untraced_s", plainDur.Seconds(), "s")
	return b.writeSpans(tr)
}

// compareServed checks one replayed request against the server's
// answer.
func compareServed(i int, q *replayReq, got replayOutcome) error {
	if q.wantPlans != nil && !bytes.Equal(got.plans, q.wantPlans) {
		return fmt.Errorf("replay request %d: plan store image differs from the server's", i)
	}
	if q.train {
		w := q.wantTrain
		if got.trained != w.Trained || got.failed != w.Failed || got.evals != w.PlanEvals {
			return fmt.Errorf("replay request %d: training trained/failed/evals %d/%d/%d, served %d/%d/%d",
				i, got.trained, got.failed, got.evals, w.Trained, w.Failed, w.PlanEvals)
		}
		return nil
	}
	if reportsKey(got.reports) != reportsKey(q.want) {
		return fmt.Errorf("replay request %d: unit reports differ from the served cell reports", i)
	}
	if got.evals != q.wantEvals {
		return fmt.Errorf("replay request %d: %d plan evals, served %d", i, got.evals, q.wantEvals)
	}
	return nil
}

// writeSpans dumps the traced replay's spans as JSON.
func (b *bench) writeSpans(tr *tracer) error {
	path := filepath.Join(b.outDir, fmt.Sprintf("spans-%s-seed%d.json", b.workload, b.seed))
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	b.info = append(b.info, fmt.Sprintf("spans: %d written to %s", len(tr.spans), path))
	return nil
}
