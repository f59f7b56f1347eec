package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"joss/internal/obs"
	"joss/internal/service"
	"joss/internal/stats"
	"joss/internal/workloads"
)

// client is one closed-loop load generator: a single keep-alive
// connection, requests timed from send to the end of the body read.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	// The longest request (a fig8-batch sweep) takes about a second; a
	// request still open after the timeout counts as failed instead of
	// hanging the run.
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body as JSON and returns the full response body and the
// client-side latency. A non-200 status is an error.
func (c *client) post(path string, body any) ([]byte, time.Duration, error) {
	enc, err := json.Marshal(body)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(enc))
	if err != nil {
		return nil, time.Since(start), fmt.Errorf("POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	if err != nil {
		return nil, lat, fmt.Errorf("POST %s: reading body: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return data, lat, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, lat, nil
}

// get fetches a path's body (used for /metrics scrapes, not counted as
// workload operations).
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return data, nil
}

// sweep posts a synchronous /sweep.
func (c *client) sweep(req service.WireSweepRequest) (service.WireSweepResult, int, time.Duration, error) {
	data, lat, err := c.post("/sweep", req)
	var res service.WireSweepResult
	if err == nil {
		err = json.Unmarshal(data, &res)
	}
	return res, len(data), lat, err
}

// run posts a single-cell /run.
func (c *client) run(req service.WireRunRequest) (service.WireRunResult, int, time.Duration, error) {
	data, lat, err := c.post("/run", req)
	var res service.WireRunResult
	if err == nil {
		err = json.Unmarshal(data, &res)
	}
	return res, len(data), lat, err
}

// train posts a synchronous /train.
func (c *client) train(req service.WireTrainRequest) (service.WireTrainResult, time.Duration, error) {
	data, lat, err := c.post("/train", req)
	var res service.WireTrainResult
	if err == nil {
		err = json.Unmarshal(data, &res)
	}
	if err == nil && res.Error != "" {
		err = fmt.Errorf("POST /train: %s", res.Error)
	}
	return res, lat, err
}

// stream posts /sweep?stream=1 and reads the NDJSON frames to the end
// of the body. It checks the frame sequence: one cell frame per cell,
// each equal to the done frame's report for that cell.
func (c *client) stream(req service.WireSweepRequest, cells int) (service.WireSweepResult, int, time.Duration, error) {
	enc, err := json.Marshal(req)
	if err != nil {
		return service.WireSweepResult{}, 0, 0, err
	}
	start := time.Now()
	resp, err := c.hc.Post(c.base+"/sweep?stream=1", "application/json", bytes.NewReader(enc))
	if err != nil {
		return service.WireSweepResult{}, 0, time.Since(start), fmt.Errorf("POST /sweep?stream=1: %w", err)
	}
	defer resp.Body.Close()
	var frames []service.WireStreamFrame
	n := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		n += len(sc.Bytes()) + 1
		var f service.WireStreamFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return service.WireSweepResult{}, n, time.Since(start), fmt.Errorf("stream frame: %w", err)
		}
		frames = append(frames, f)
	}
	lat := time.Since(start)
	if err := sc.Err(); err != nil {
		return service.WireSweepResult{}, n, lat, fmt.Errorf("reading stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return service.WireSweepResult{}, n, lat, fmt.Errorf("POST /sweep?stream=1: status %d", resp.StatusCode)
	}
	if len(frames) != cells+1 || frames[len(frames)-1].Type != "done" || frames[len(frames)-1].Result == nil {
		return service.WireSweepResult{}, n, lat, fmt.Errorf("stream: %d frames for %d cells, or no done frame", len(frames), cells)
	}
	res := *frames[len(frames)-1].Result
	for _, f := range frames[:cells] {
		want, ok := res.Reports[f.Bench][f.Sched]
		if f.Type != "cell" || f.Report == nil || !ok || *f.Report != want {
			return res, n, lat, fmt.Errorf("stream: cell frame %s/%s disagrees with the done frame", f.Bench, f.Sched)
		}
	}
	return res, n, lat, nil
}

// scrape reads the session's metric registry through /metrics.
func (c *client) scrape() ([]obs.Point, error) {
	data, err := c.get("/metrics?format=json")
	if err != nil {
		return nil, err
	}
	return obs.ParseJSON(bytes.NewReader(data))
}

// reportsKey renders a reports map canonically (encoding/json sorts
// map keys and prints floats in their shortest exact form), so two
// byte-equal keys mean bit-identical reports.
func reportsKey(r map[string]map[string]service.WireReport) string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	return string(b)
}

// ratios are the paper's headline figures over a set of benchmarks:
// geomeans of JOSS total energy over GRWS and over STEER, and of JOSS
// makespan over GRWS.
type ratios struct {
	vsGRWS, vsSTEER, makespanVsGRWS float64
}

var errNoRatios = errors.New("reports lack the cells a ratio needs")

func totalJ(r service.WireReport) float64   { return r.TotalJ }
func makespan(r service.WireReport) float64 { return r.MakespanSec }

// paperRatios computes the ratios over every benchmark of every
// report set (one set per simulation seed).
func paperRatios(sets ...map[string]map[string]service.WireReport) (ratios, error) {
	var r ratios
	var err error
	if r.vsGRWS, err = geomeanOver(sets, "JOSS", "GRWS", totalJ); err != nil {
		return r, err
	}
	if r.vsSTEER, err = geomeanOver(sets, "JOSS", "STEER", totalJ); err != nil {
		return r, err
	}
	r.makespanVsGRWS, err = geomeanOver(sets, "JOSS", "GRWS", makespan)
	return r, err
}

// geomeanOver is the geomean, over the sets and their benchmarks in
// Figure 8 order, of f(num's report) / f(den's report).
func geomeanOver(sets []map[string]map[string]service.WireReport, num, den string, f func(service.WireReport) float64) (float64, error) {
	var xs []float64
	for _, reps := range sets {
		for _, wl := range workloads.Fig8Configs() {
			m, ok := reps[wl.Name]
			if !ok {
				continue
			}
			n, okN := m[num]
			d, okD := m[den]
			if !okN || !okD || f(n) <= 0 || f(d) <= 0 {
				return 0, errNoRatios
			}
			xs = append(xs, f(n)/f(d))
		}
	}
	if len(xs) == 0 {
		return 0, errNoRatios
	}
	return stats.GeoMean(xs), nil
}

// seedsPerRun is the size of a run's simulation-seed pool.
const seedsPerRun = 4

// simSeeds returns the simulation seeds a run's requests cycle
// through, in order: a fixed pool (1, 1+repeats, 1+2·repeats, …,
// spaced so that one seed's repeats never reach the next), shuffled by
// the workload seed. Every run covers the whole pool, so the paper's
// ratios are the same in every run and timings average over the same
// simulated work; the workload seed decides the order.
func simSeeds(seed int64, repeats int) []int64 {
	order := rand.New(rand.NewSource(seed)).Perm(seedsPerRun)
	out := make([]int64, seedsPerRun)
	for i, k := range order {
		out[i] = 1 + int64(k*repeats)
	}
	return out
}

func (b *bench) setRatios(r ratios) {
	b.setE2E("joss_vs_grws", r.vsGRWS, "ratio")
	b.setE2E("joss_vs_steer", r.vsSTEER, "ratio")
	b.setE2E("joss_makespan_vs_grws", r.makespanVsGRWS, "ratio")
}

// simTasks is the number of simulated tasks a sweep response stands
// for: each cell's report carries one repeat's task count.
func simTasks(res service.WireSweepResult, repeats int) float64 {
	n := 0
	for _, m := range res.Reports {
		for _, r := range m {
			n += r.Tasks
		}
	}
	return float64(n * repeats)
}

func benchNames() []string {
	var names []string
	for _, c := range workloads.Fig8Configs() {
		names = append(names, c.Name)
	}
	return names
}

func boolp(v bool) *bool    { return &v }
func int64p(v int64) *int64 { return &v }
