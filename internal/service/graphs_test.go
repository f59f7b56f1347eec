package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"joss/internal/dag"
	"joss/internal/taskrt"
	"joss/internal/workloads"
)

// TestSharedGraphMatchesPrivate is the shared-graph differential: N
// runtimes simulating concurrently on one cached graph must produce
// exactly the reports that runs on private, freshly built graphs
// produce — for every Figure 8 scheduler. Run it under -race: a write
// to the shared graph from any run shows up as a data race.
func TestSharedGraphMatchesPrivate(t *testing.T) {
	s := newTestSession(t)
	const scale, lanes = 0.02, 4
	for _, bn := range []string{"SLU", "HT_Big", "BI"} {
		wl, _, _ := FindWorkload(bn)
		for _, sn := range SchedulerNames {
			run := func(g func() *dag.Graph, seed int64) taskrt.Report {
				opt := taskrt.DefaultOptions()
				opt.Seed = seed
				return taskrt.New(s.Oracle(), s.NewScheduler(sn), opt).Run(g())
			}
			want := make([]taskrt.Report, lanes)
			for i := range want {
				want[i] = run(func() *dag.Graph { return wl.Build(scale) }, int64(1+i))
			}
			shared := s.graphs.get(wl, scale)
			got := make([]taskrt.Report, lanes)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = run(func() *dag.Graph { return shared }, int64(1+i))
				}()
			}
			wg.Wait()
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s/%s seed %d: shared-graph run diverged from a private graph:\n got %+v\nwant %+v",
						bn, sn, 1+i, got[i], want[i])
				}
			}
		}
	}
}

// TestSweepBuildsEachGraphOnce pins the cache's contract on the serving
// path: two identical multi-repeat sweeps over several workers build
// each ⟨workload, scale⟩ exactly once between them, and every other
// lookup — admission costing and every run unit — is a hit.
func TestSweepBuildsEachGraphOnce(t *testing.T) {
	s := newTestSession(t)
	req := SweepRequest{
		Jobs:     jobsFor(s, []string{"SLU", "MM_256_dop4", "HT_Huge"}, []string{"GRWS", "JOSS"}),
		Scale:    0.02,
		Seed:     1,
		Repeats:  3,
		Parallel: 3,
	}
	first := mustSubmit(t, s, req)
	second := mustSubmit(t, s, req)
	if !reflect.DeepEqual(first.Reports, second.Reports) {
		t.Fatal("identical sweeps on one session returned different reports")
	}
	if got := s.graphs.builds.Value(); got != 3 {
		t.Errorf("two sweeps over 3 workloads built %d graphs, want 3", got)
	}
	// Units: 2 sweeps × 6 cells × 3 repeats; admission costs its 6 cells
	// per sweep but memoizes after the first build of each workload.
	if hits := s.graphs.hits.Value(); hits < 2*6*3 {
		t.Errorf("graph cache served %d hits, want at least %d", hits, 2*6*3)
	}
	if ev := s.graphs.evictions.Value(); ev != 0 {
		t.Errorf("graph cache evicted %d graphs under its budget", ev)
	}
}

// TestGraphCacheEvictsLRU drives the task budget: inserting past it
// drops the least recently used graph (a hit refreshes recency), an
// evicted key is rebuilt on its next lookup, and a pointer handed out
// before eviction stays valid.
func TestGraphCacheEvictsLRU(t *testing.T) {
	c := newGraphCache(nil)
	wl := func(name string) workloads.Config {
		w, _, _ := FindWorkload(name)
		return w
	}
	slu, mm, mc := wl("SLU"), wl("MM_256_dop4"), wl("MC_4096_dop4")
	gSLU := c.get(slu, 0.05) // 650 tasks
	c.get(mm, 0.05)          // 500 tasks
	c.budget = 1200
	c.get(slu, 0.05) // refresh SLU: MM is now least recent
	c.get(mc, 0.05)  // 1000 tasks: over budget, evicts MM then SLU
	if ev := c.evictions.Value(); ev != 2 {
		t.Fatalf("evictions = %d, want 2", ev)
	}
	if c.tasks != 1000 || len(c.entries) != 1 {
		t.Fatalf("cache holds %d tasks in %d entries, want 1000 in 1", c.tasks, len(c.entries))
	}
	if err := gSLU.Validate(); err != nil || gSLU.NumTasks() != 650 {
		t.Fatalf("evicted graph no longer usable: %v (%d tasks)", err, gSLU.NumTasks())
	}
	builds := c.builds.Value()
	c.get(mm, 0.05)
	if c.builds.Value() != builds+1 {
		t.Fatal("evicted key was not rebuilt on its next lookup")
	}
}

// TestGraphCacheSingleFlight: concurrent first lookups of one key share
// a single build.
func TestGraphCacheSingleFlight(t *testing.T) {
	c := newGraphCache(nil)
	wl, _, _ := FindWorkload("HT_Big")
	const n = 8
	graphs := make([]*dag.Graph, n)
	var wg sync.WaitGroup
	for i := range graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			graphs[i] = c.get(wl, 0.05)
		}()
	}
	wg.Wait()
	if c.builds.Value() != 1 || c.hits.Value() != n-1 {
		t.Fatalf("%d concurrent lookups: %d builds, %d hits; want 1 and %d",
			n, c.builds.Value(), c.hits.Value(), n-1)
	}
	for _, g := range graphs[1:] {
		if g != graphs[0] {
			t.Fatal("concurrent lookups returned different graphs")
		}
	}
}

// TestGraphCacheHitAllocFree: a cache hit — the per-unit path, counter
// update included — allocates nothing.
func TestGraphCacheHitAllocFree(t *testing.T) {
	s := newTestSession(t) // metrics on: the counters are registered
	wl, _, _ := FindWorkload("SLU")
	s.graphs.get(wl, 0.02)
	if allocs := testing.AllocsPerRun(100, func() { s.graphs.get(wl, 0.02) }); allocs != 0 {
		t.Fatalf("graph cache hit = %.1f allocs, want 0", allocs)
	}
}

// TestDroppedSessionIsCollected: a Session that served requests and
// then went idle is garbage once its owner drops it. Its dispatch
// workers outlive it (they cannot be stopped), so this pins that
// nothing they reach — the pool's job list above all — still points
// back at the session.
func TestDroppedSessionIsCollected(t *testing.T) {
	cfg := testConfig(t)
	ws := func() weak.Pointer[Session] {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustSubmit(t, s, SweepRequest{
			Jobs:     jobsFor(s, []string{"SLU", "VG"}, []string{"GRWS", "JOSS"}),
			Scale:    0.02,
			Seed:     1,
			Repeats:  2,
			Parallel: 2,
		})
		h := mustEnqueue(t, s, SweepRequest{Jobs: jobsFor(s, []string{"SLU"}, []string{"STEER"}), Scale: 0.02})
		h.Wait()
		return weak.Make(s)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for ws.Value() != nil && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if ws.Value() != nil {
		t.Fatal("a dropped idle Session is still reachable")
	}
}

// TestWireBatchFieldIgnored: the retired `batch` request field still
// decodes, and a /sweep or /run body carrying it — true or false —
// answers exactly like one without it (elapsed_sec aside).
func TestWireBatchFieldIgnored(t *testing.T) {
	srv := httptest.NewServer(NewHandler(newTestSession(t)))
	defer srv.Close()
	post := func(path, body string) []byte {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d, %v: %s", path, body, resp.StatusCode, err, raw)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		delete(fields, "elapsed_sec")
		out, _ := json.Marshal(fields)
		return out
	}
	bodies := map[string]string{
		"/sweep": `{"benchmarks":["SLU"],"schedulers":["GRWS","JOSS"],"scale":0.02,"repeats":2,"share_plans":false%s}`,
		"/run":   `{"bench":"SLU","sched":"JOSS","scale":0.02,"repeats":2,"share_plans":false%s}`,
	}
	for path, tmpl := range bodies {
		want := post(path, fmt.Sprintf(tmpl, ""))
		for _, extra := range []string{`,"batch":false`, `,"batch":true`} {
			if got := post(path, fmt.Sprintf(tmpl, extra)); !bytes.Equal(got, want) {
				t.Errorf("%s with %s answered differently:\n got %s\nwant %s", path, extra, got, want)
			}
		}
	}
}
