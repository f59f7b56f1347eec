package main

import (
	"math"
	"sort"
	"strings"

	"joss/internal/obs"
)

// tally accumulates /metrics differences across one or more windows
// (cold-start scrapes each short-lived session once, from zero).
type tally struct {
	values  map[string]float64   // counters and histogram counts
	sums    map[string]float64   // histogram sums
	buckets map[string][]bucket  // histogram buckets (non-cumulative)
	labels  map[string]obs.Point // one point per series, for lookup by labels
}

type bucket struct {
	le    float64 // +Inf for the last
	count float64
}

func newTally() *tally {
	return &tally{
		values:  make(map[string]float64),
		sums:    make(map[string]float64),
		buckets: make(map[string][]bucket),
		labels:  make(map[string]obs.Point),
	}
}

func seriesKey(name string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(name)
	for _, k := range keys {
		sb.WriteString("|" + k + "=" + labels[k])
	}
	return sb.String()
}

// add accumulates after − before (before may be nil: a fresh registry).
func (t *tally) add(before, after []obs.Point) {
	prev := make(map[string]obs.Point, len(before))
	for _, p := range before {
		prev[seriesKey(p.Name, p.Labels)] = p
	}
	for _, p := range after {
		if p.Type != "counter" && p.Type != "histogram" {
			continue
		}
		k := seriesKey(p.Name, p.Labels)
		q := prev[k]
		t.labels[k] = p
		t.values[k] += p.Value - q.Value
		t.sums[k] += p.Sum - q.Sum
		if p.Type != "histogram" {
			continue
		}
		bs := t.buckets[k]
		if bs == nil {
			bs = make([]bucket, len(p.Buckets))
			for i, bp := range p.Buckets {
				bs[i].le = math.Inf(1)
				if bp.LE != nil {
					bs[i].le = *bp.LE
				}
			}
			t.buckets[k] = bs
		}
		lastP, lastQ := int64(0), int64(0)
		for i, bp := range p.Buckets {
			c := bp.Count - lastP
			lastP = bp.Count
			if i < len(q.Buckets) {
				c -= q.Buckets[i].Count - lastQ
				lastQ = q.Buckets[i].Count
			}
			bs[i].count += float64(c)
		}
	}
}

// value sums a family's series whose labels include every given
// label.
func (t *tally) value(name string, match map[string]string) float64 {
	v := 0.0
	for k, p := range t.labels {
		if p.Name == name && labelsMatch(p.Labels, match) {
			v += t.values[k]
		}
	}
	return v
}

func (t *tally) sum(name string, match map[string]string) float64 {
	v := 0.0
	for k, p := range t.labels {
		if p.Name == name && labelsMatch(p.Labels, match) {
			v += t.sums[k]
		}
	}
	return v
}

func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// quantile estimates a histogram series' q-quantile by linear
// interpolation inside the bucket that holds it (Prometheus style; the
// +Inf bucket answers with its lower edge).
func (t *tally) quantile(name string, match map[string]string, q float64) float64 {
	var bs []bucket
	for k, p := range t.labels {
		if p.Name == name && labelsMatch(p.Labels, match) {
			bs = t.buckets[k]
			break
		}
	}
	total := 0.0
	for _, b := range bs {
		total += b.count
	}
	if total == 0 {
		return 0
	}
	rank := q * total
	cum, lo := 0.0, 0.0
	for _, b := range bs {
		if b.count > 0 && cum+b.count >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(rank-cum)/b.count
		}
		cum += b.count
		if !math.IsInf(b.le, 1) {
			lo = b.le
		}
	}
	return lo
}

// windowLayers sets the dispatch, HTTP and job-journal per-layer
// metrics from a window's /metrics tally. workerSec is the pool's
// worker-seconds over the window (workers × window length).
func (b *bench) windowLayers(t *tally, workerSec float64) {
	const qw = "joss_dispatch_queue_wait_seconds"
	const svc = "joss_dispatch_service_seconds"
	b.setLayer("dispatch.queue_wait_ms_p50", 1e3*t.quantile(qw, nil, 0.5), "ms")
	b.setLayer("dispatch.queue_wait_ms_p90", 1e3*t.quantile(qw, nil, 0.9), "ms")
	for _, kind := range []string{"batch", "scalar"} {
		lbl := map[string]string{"claim": kind}
		b.setLayer("dispatch.claim_ms_p50."+kind, 1e3*t.quantile(svc, lbl, 0.5), "ms")
		b.setLayer("dispatch.claims_"+kind, t.value("joss_dispatch_claims_total", lbl), "count")
	}
	busy := 0.0
	if workerSec > 0 {
		busy = t.sum(svc, nil) / workerSec
	}
	b.setLayer("dispatch.busy_ratio", busy, "ratio")
	b.setLayer("dispatch.job_queue_wait_ms_mean", meanMS(t, "joss_service_job_queue_wait_seconds"), "ms")
	errs := t.value("joss_http_requests_total", map[string]string{"code": "4xx"}) +
		t.value("joss_http_requests_total", map[string]string{"code": "5xx"})
	b.setLayer("http.errors", errs, "count")
	b.setLayer("jobstore.appends", t.value("joss_jobstore_appends_total", nil), "count")
	b.setLayer("jobstore.append_errors", t.value("joss_jobstore_append_errors_total", nil), "count")
}

func meanMS(t *tally, name string) float64 {
	n := t.value(name, nil)
	if n == 0 {
		return 0
	}
	return 1e3 * t.sum(name, nil) / n
}

// goLayers sets the Go runtime metrics from the daemon counters
// accumulated over the window, per simulated task served in it.
func (b *bench) goLayers(d daemonState, simTasks float64) {
	per := func(x float64) float64 {
		if simTasks == 0 {
			return 0
		}
		return x / simTasks
	}
	b.setLayer("go.allocs_per_sim_task", per(float64(d.Mallocs)), "count")
	b.setLayer("go.alloc_bytes_per_sim_task", per(float64(d.TotalAlloc)), "B")
	b.setLayer("go.gc_cycles", float64(d.NumGC), "count")
	b.setLayer("go.gc_pause_ms", float64(d.PauseTotalNs)/1e6, "ms")
}

// wireLayers sets the wire metrics measured by the clients: per
// endpoint, the median of client latency minus the server's own
// elapsed_sec, and the mean response size.
func (b *bench) wireLayers(overheadMS map[string][]float64, respBytes, responses int) {
	for _, ep := range []string{"sweep", "run", "stream", "train"} {
		b.setLayer("wire.overhead_ms_p50."+ep, median(overheadMS[ep]), "ms")
	}
	mean := 0.0
	if responses > 0 {
		mean = float64(respBytes) / float64(responses)
	}
	b.setLayer("wire.response_bytes", mean, "B")
}
