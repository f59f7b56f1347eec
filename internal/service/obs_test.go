package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"joss/internal/obs"
)

// TestMetricsEndpoint is the exposition bar: after real traffic (a
// synchronous /run, an async job through the journal), GET /metrics
// serves Prometheus text covering the dispatch, service, jobstore and
// HTTP families, and ?format=json serves the same series as a parsable
// snapshot.
func TestMetricsEndpoint(t *testing.T) {
	cfg := testConfig(t)
	cfg.JobStorePath = filepath.Join(t.TempDir(), "jobs.ndjson")
	sess, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv := httptest.NewServer(NewHandler(sess))
	defer srv.Close()

	var run WireRunResult
	if code := postJSON(t, srv, "/run", WireRunRequest{Bench: "SLU", Sched: "GRWS", Scale: 0.02}, &run); code != http.StatusOK {
		t.Fatalf("/run: status %d", code)
	}
	var created WireJobCreated
	if code := postJSON(t, srv, "/jobs", WireSweepRequest{
		Benchmarks: []string{"SLU"}, Schedulers: []string{"GRWS"}, Scale: 0.02,
	}, &created); code != http.StatusAccepted {
		t.Fatalf("/jobs: status %d", code)
	}
	waitJobDone(t, srv, created.JobID)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("/metrics content type = %q, want %q", ct, obs.PromContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	// One representative series per instrumented layer, plus the HELP/
	// TYPE headers that make the output valid exposition text.
	for _, want := range []string{
		"# TYPE joss_dispatch_queue_wait_seconds histogram",
		"joss_dispatch_jobs_admitted_total",
		"joss_dispatch_units_done_total",
		"# TYPE joss_service_job_service_seconds histogram",
		"joss_service_jobs_completed_total",
		"joss_service_plan_evals_total",
		`joss_jobstore_appends_total{kind="spec"}`,
		`joss_jobstore_appends_total{kind="result"}`,
		`joss_http_requests_total{code="2xx",endpoint="/run"}`,
		`joss_http_request_seconds_bucket{endpoint="/run",le="+Inf"}`,
		"joss_service_uptime_seconds",
		"joss_service_graph_evictions_total",
		`joss_dispatch_claims_total{claim="scalar"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics output missing %q", want)
		}
	}

	// The JSON twin parses back into the same series set.
	jresp, err := http.Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	if ct := jresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/metrics?format=json content type = %q", ct)
	}
	pts, err := obs.ParseJSON(jresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]obs.Point)
	for _, p := range pts {
		byName[p.Name] = p
	}
	if p, ok := byName["joss_dispatch_jobs_admitted_total"]; !ok || p.Value < 2 {
		t.Errorf("json snapshot jobs_admitted = %+v, want >= 2 (the /run and the async job)", p)
	}
	if p, ok := byName["joss_service_job_service_seconds"]; !ok || p.Type != "histogram" || p.Value < 1 {
		t.Errorf("json snapshot job_service histogram = %+v, want >= 1 observation", p)
	}
	// The /run and the async job name the same ⟨SLU, 0.02⟩ cell: one
	// build, every later lookup a hit.
	if p := byName["joss_service_graph_builds_total"]; p.Type != "counter" || p.Value != 1 {
		t.Errorf("json snapshot graph_builds = %+v, want counter at 1", p)
	}
	if p := byName["joss_service_graph_hits_total"]; p.Value < 2 {
		t.Errorf("json snapshot graph_hits = %+v, want >= 2", p)
	}
}

// waitJobDone polls GET /jobs/{id} until the job reports done,
// returning the final wire status.
func waitJobDone(t *testing.T, srv *httptest.Server, id string) WireJobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st WireJobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Result != nil {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %+v", id, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestJobLifecycleTimestamps pins the wire lifecycle fields: a
// finished job reports admitted_at <= started_at <= completed_at (all
// RFC3339Nano) and a non-negative queue_wait_sec consistent with the
// stamps.
func TestJobLifecycleTimestamps(t *testing.T) {
	sess := newTestSession(t)
	srv := httptest.NewServer(NewHandler(sess))
	defer srv.Close()

	var created WireJobCreated
	if code := postJSON(t, srv, "/jobs", WireSweepRequest{
		Benchmarks: []string{"SLU"}, Schedulers: []string{"GRWS"}, Scale: 0.02, Repeats: 2,
	}, &created); code != http.StatusAccepted {
		t.Fatalf("/jobs: status %d", code)
	}
	st := waitJobDone(t, srv, created.JobID)

	parse := func(field, v string) time.Time {
		t.Helper()
		if v == "" {
			t.Fatalf("%s missing from finished job: %+v", field, st)
		}
		ts, err := time.Parse(time.RFC3339Nano, v)
		if err != nil {
			t.Fatalf("%s = %q: %v", field, v, err)
		}
		return ts
	}
	adm := parse("admitted_at", st.AdmittedAt)
	sta := parse("started_at", st.StartedAt)
	com := parse("completed_at", st.CompletedAt)
	if sta.Before(adm) || com.Before(sta) {
		t.Errorf("lifecycle out of order: admitted %v, started %v, completed %v", adm, sta, com)
	}
	if st.QueueWaitSec < 0 {
		t.Errorf("queue_wait_sec = %v, want >= 0", st.QueueWaitSec)
	}
	if got := sta.Sub(adm).Seconds(); st.QueueWaitSec > got+0.001 {
		t.Errorf("queue_wait_sec %v exceeds started-admitted gap %v", st.QueueWaitSec, got)
	}
}

// TestMetricsDifferential is the tentpole's correctness bar:
// instrumentation is observer-only. The same sweep on an instrumented
// session and a Config.DisableMetrics session must produce
// byte-identical wire reports and identical PlanEvals.
func TestMetricsDifferential(t *testing.T) {
	cfgOn := testConfig(t)
	cfgOff := testConfig(t)
	cfgOff.DisableMetrics = true

	run := func(cfg Config) ([]byte, int) {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		res := mustSubmit(t, s, SweepRequest{
			Jobs:    jobsFor(s, []string{"SLU", "VG"}, []string{"GRWS", "JOSS"}),
			Scale:   0.02,
			Seed:    1,
			Repeats: 2,
		})
		wire := make(map[string]map[string]WireReport)
		for b, m := range res.Reports {
			wire[b] = make(map[string]WireReport)
			for sn, rep := range m {
				wire[b][sn] = wireReport(rep)
			}
		}
		body, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		return body, res.PlanEvals
	}

	onBody, onEvals := run(cfgOn)
	offBody, offEvals := run(cfgOff)
	if !reflect.DeepEqual(onBody, offBody) {
		t.Errorf("instrumented sweep differs from DisableMetrics sweep:\non:  %s\noff: %s", onBody, offBody)
	}
	if onEvals != offEvals {
		t.Errorf("PlanEvals differ: instrumented %d, disabled %d", onEvals, offEvals)
	}

	// A disabled session has no registry, and its /metrics 404s.
	off, err := New(cfgOff)
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if off.Metrics() != nil {
		t.Error("DisableMetrics session still has a registry")
	}
	srv := httptest.NewServer(NewHandler(off))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/metrics on a disabled session: status %d, want 404", resp.StatusCode)
	}
}

// TestRunTraceObserverOnly pins /run?trace=1: the traced report is
// byte-identical to the untraced one (the trace never consults the
// RNG), the trace is valid Chrome trace-event JSON, and tracing a
// repeated run is refused — one trace describes one simulation.
func TestRunTraceObserverOnly(t *testing.T) {
	sess := newTestSession(t)
	srv := httptest.NewServer(NewHandler(sess))
	defer srv.Close()

	req := WireRunRequest{Bench: "SLU", Sched: "GRWS", Scale: 0.02}
	var plain, traced WireRunResult
	if code := postJSON(t, srv, "/run", req, &plain); code != http.StatusOK {
		t.Fatalf("/run: status %d", code)
	}
	if code := postJSON(t, srv, "/run?trace=1", req, &traced); code != http.StatusOK {
		t.Fatalf("/run?trace=1: status %d", code)
	}
	if !reflect.DeepEqual(plain.Report, traced.Report) {
		t.Errorf("traced report differs from untraced:\nplain:  %+v\ntraced: %+v", plain.Report, traced.Report)
	}
	if len(traced.Trace) == 0 {
		t.Fatal("?trace=1 returned no trace")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(traced.Trace, &doc); err != nil {
		t.Fatalf("trace is not valid Chrome trace-event JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
	if len(plain.Trace) != 0 {
		t.Error("untraced /run carried a trace")
	}

	var errBody map[string]string
	req.Repeats = 3
	if code := postJSON(t, srv, "/run?trace=1", req, &errBody); code != http.StatusBadRequest {
		t.Errorf("?trace=1 with repeats: status %d, want 400", code)
	}
}
