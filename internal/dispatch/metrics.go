// Dispatcher observability: an optional obs-backed metric set the
// serving layer installs with SetMetrics. Every hook on the dispatch
// path is a nil check plus atomic updates (and at most two time.Now
// calls per claim) — measured at 0 allocs/op, so the warm alloc floors
// the perf gate pins are untouched.
package dispatch

import (
	"joss/internal/obs"
)

// Metrics is the dispatcher's metric set. All fields are non-nil when
// built via NewMetrics.
type Metrics struct {
	// Admitted/Rejected count Admit outcomes (zero-unit jobs are
	// admitted trivially and still counted).
	Admitted *obs.Counter
	Rejected *obs.Counter
	// QueueWait observes, per claim, the time from the job's admission
	// to the claim's dispatch — late units of a long job accrue the
	// job's runtime so far, which is exactly the latency a unit
	// experienced since the client submitted.
	QueueWait *obs.Histogram
	// Service observes unit execution time; Claims counts dispatched
	// units. Both keep the claim="scalar" label the series carried when
	// batched claims also existed, so dashboards and scrapers reading
	// it keep working.
	Service *obs.Histogram
	Claims  *obs.Counter
	// UnitsDone counts executed units; UnitsDropped counts units
	// discarded before execution by Cancel.
	UnitsDone    *obs.Counter
	UnitsDropped *obs.Counter
	// WorkersBusy is the number of workers executing a claim right now.
	WorkersBusy *obs.Gauge
}

// NewMetrics registers the joss_dispatch_* family on r and wires the
// pool's occupancy gauges (workers, active jobs, queued and in-flight
// units) as scrape-time functions over p.
func NewMetrics(r *obs.Registry, p *Pool) *Metrics {
	m := &Metrics{
		Admitted:     r.NewCounter("joss_dispatch_jobs_admitted_total", "Jobs admitted into the dispatch pool.", nil),
		Rejected:     r.NewCounter("joss_dispatch_jobs_rejected_total", "Job admissions rejected by overload limits.", nil),
		QueueWait:    r.NewHistogram("joss_dispatch_queue_wait_seconds", "Per-claim wait from job admission to dispatch.", nil, nil),
		Service:      r.NewHistogram("joss_dispatch_service_seconds", "Claim execution time.", map[string]string{"claim": "scalar"}, nil),
		Claims:       r.NewCounter("joss_dispatch_claims_total", "Dispatched claims.", map[string]string{"claim": "scalar"}),
		UnitsDone:    r.NewCounter("joss_dispatch_units_done_total", "Units executed to completion.", nil),
		UnitsDropped: r.NewCounter("joss_dispatch_units_dropped_total", "Units dropped before execution by cancel.", nil),
		WorkersBusy:  r.NewGauge("joss_dispatch_workers_busy", "Workers executing a claim right now.", nil),
	}
	r.NewGaugeFunc("joss_dispatch_workers", "Worker goroutines in the pool.", nil, func() float64 {
		return float64(p.Workers())
	})
	r.NewGaugeFunc("joss_dispatch_jobs_active", "Jobs admitted and not yet finished.", nil, func() float64 {
		jobs, _, _ := p.Load()
		return float64(jobs)
	})
	r.NewGaugeFunc("joss_dispatch_queued_units", "Undispatched units across all jobs.", nil, func() float64 {
		_, queued, _ := p.Load()
		return float64(queued)
	})
	r.NewGaugeFunc("joss_dispatch_inflight_units", "Units executing right now.", nil, func() float64 {
		_, _, inflight := p.Load()
		return float64(inflight)
	})
	return m
}

// SetMetrics installs (or, with nil, removes) the pool's metric set.
// Call before serving traffic; claims already in flight keep the set
// they started with.
func (p *Pool) SetMetrics(m *Metrics) {
	p.mu.Lock()
	p.metrics = m
	p.mu.Unlock()
}
