package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"joss/internal/fleet"
	"joss/internal/service"
)

// newRemote builds the daemon client for a -connect target on the
// shared fleet retry machinery, narrating each backoff to stderr.
func newRemote(target string, retries int) (*fleet.Client, error) {
	c, err := fleet.NewClient(target, retries)
	if err != nil {
		return nil, err
	}
	c.OnRetry = func(err error, delay time.Duration, attempt, total int) {
		fmt.Fprintf(os.Stderr, "jossrun: %v; retrying in %v (attempt %d/%d)\n",
			err, delay.Round(time.Millisecond), attempt, total)
	}
	return c, nil
}

// constrainedName spells the scheduler the way the service parses it:
// -speedup S becomes "JOSS+<S>X".
func constrainedName(schedName string, speedup float64) string {
	if speedup > 1 {
		return fmt.Sprintf("JOSS+%gX", speedup)
	}
	return schedName
}

// printReport renders one served cell report.
func printReport(r service.WireReport) {
	fmt.Printf("\nscheduler       %s\n", r.Scheduler)
	fmt.Printf("makespan        %.4f s\n", r.MakespanSec)
	fmt.Printf("CPU energy      %.4f J\n", r.CPUJ)
	fmt.Printf("memory energy   %.4f J\n", r.MemJ)
	fmt.Printf("total energy    %.4f J  (avg %.3f W)\n", r.TotalJ, r.TotalJ/r.MakespanSec)
	fmt.Printf("tasks executed  %d (steals %d, recruitments %d)\n", r.Tasks, r.Steals, r.Recruitments)
	fmt.Printf("DVFS            %d requests\n", r.FreqRequests)
}

// decodeOrError decodes an okCode response into out, or surfaces the
// daemon's JSON error body as a permanent error.
func decodeOrError(resp *http.Response, okCode int, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode != okCode {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		if e.Error == "" {
			e.Error = resp.Status
		}
		return fmt.Errorf("daemon rejected the request: %s", e.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decoding daemon response: %w", err)
	}
	return nil
}

// asyncRemote enqueues one run as a fire-and-forget job on the daemon
// (POST /jobs) and prints the job id — the handle for `jossrun
// -connect ... -watch ID` or plain curl polling.
func asyncRemote(target, bench, schedName string, speedup, scale float64, seed int64, repeats, retries int) error {
	r, err := newRemote(target, retries)
	if err != nil {
		return err
	}
	reqBody, err := json.Marshal(service.WireSweepRequest{
		Benchmarks: []string{bench},
		Schedulers: []string{constrainedName(schedName, speedup)},
		Scale:      scale,
		Seed:       &seed,
		Repeats:    repeats,
	})
	if err != nil {
		return err
	}
	resp, err := r.Do(context.Background(), http.MethodPost, "/jobs", reqBody)
	if err != nil {
		return err
	}
	var created service.WireJobCreated
	if err := decodeOrError(resp, http.StatusAccepted, &created); err != nil {
		return err
	}
	fmt.Printf("job %s enqueued (%d units over %d workers)\n", created.JobID, created.Units, created.Workers)
	fmt.Printf("watch it:  jossrun -connect %s -watch %s\n", target, created.JobID)
	fmt.Printf("or poll:   GET %s\n", created.Poll)
	fmt.Println(created.JobID)
	return nil
}

// watchRemote polls a daemon job (GET /jobs/{id}) until it completes,
// printing progress as it changes, then renders the result.
func watchRemote(target, jobID string, retries int) error {
	r, err := newRemote(target, retries)
	if err != nil {
		return err
	}
	lastLine := ""
	for {
		resp, err := r.Do(context.Background(), http.MethodGet, "/jobs/"+jobID, nil)
		if err != nil {
			return err
		}
		var st service.WireJobStatus
		if err := decodeOrError(resp, http.StatusOK, &st); err != nil {
			return err
		}
		cellsDone := 0
		for _, c := range st.Cells {
			if c.Done {
				cellsDone++
			}
		}
		line := fmt.Sprintf("job %s: %s, units %d/%d (cells %d/%d, %.1fs)",
			st.JobID, st.State, st.UnitsDone, st.UnitsTotal, cellsDone, len(st.Cells), st.ElapsedSec)
		if line != lastLine {
			fmt.Println(line)
			lastLine = line
		}
		if st.Result != nil {
			res := st.Result
			if res.Cancelled {
				fmt.Printf("job was cancelled after %d of %d units; partial result:\n",
					res.UnitsDone, res.Units)
			}
			for bench, m := range res.Reports {
				for _, rep := range m {
					fmt.Printf("\n%s:", bench)
					printReport(rep)
				}
			}
			fmt.Printf("\nplan searches   %d evaluations this job (0 = served from resident plans)\n", res.PlanEvals)
			fmt.Printf("daemon plans    %d cached, simulated in %.3f s\n", res.PlansCached, res.ElapsedSec)
			return nil
		}
		time.Sleep(150 * time.Millisecond)
	}
}

// trainRemote posts a pre-training request (POST /train) for the
// -bench/-sched grid and prints the outcome. -bench/-sched accept
// comma lists or "all" in this mode, like -fleet.
func trainRemote(target, benchList, schedList string, speedup, scale float64, seed int64, retries int) error {
	r, err := newRemote(target, retries)
	if err != nil {
		return err
	}
	scheds := splitList(schedList)
	if speedup > 1 {
		if len(scheds) != 0 {
			return fmt.Errorf("-speedup picks the constrained JOSS scheduler; drop -sched or -speedup")
		}
		scheds = []string{constrainedName("JOSS", speedup)}
	}
	reqBody, err := json.Marshal(service.WireTrainRequest{
		Benchmarks: splitList(benchList),
		Schedulers: scheds,
		Scale:      scale,
		Seed:       &seed,
	})
	if err != nil {
		return err
	}
	start := time.Now()
	resp, err := r.Do(context.Background(), http.MethodPost, "/train", reqBody)
	if err != nil {
		return err
	}
	var res service.WireTrainResult
	if err := decodeOrError(resp, http.StatusOK, &res); err != nil {
		return err
	}
	printTrainResult(target, res, time.Since(start))
	if res.Error != "" {
		return fmt.Errorf("training ended early: %s", res.Error)
	}
	return nil
}

// printTrainResult renders one daemon's training outcome.
func printTrainResult(target string, res service.WireTrainResult, wall time.Duration) {
	fmt.Printf("trained by %s in %v (%.3f s on the daemon)\n",
		target, wall.Round(time.Millisecond), res.ElapsedSec)
	fmt.Printf("plan keys       %d in the grid: %d trained, %d already cached, %d skipped (another trainer holds them), %d failed\n",
		res.Keys, res.Trained, res.Cached, res.Skipped, res.Failed)
	fmt.Printf("trainer runs    %d cells over %d rounds, %d stopped early once every kernel was planned\n",
		res.Cells, res.Rounds, res.EarlyStopped)
	fmt.Printf("plan searches   %d evaluations; daemon now holds %d plans\n",
		res.PlanEvals, res.PlansTrained)
	if res.PlanStoreError != "" {
		fmt.Printf("warning: daemon could not flush its plan store: %s\n", res.PlanStoreError)
	}
}

// runRemote posts one run request to a jossd daemon and prints the
// served report. A non-empty traceOut requests the run with ?trace=1
// — the daemon records a Chrome trace of the simulation (observer-only;
// the report stays byte-identical) and runRemote writes the returned
// trace JSON to the file.
func runRemote(target, bench, schedName string, speedup, scale float64, seed int64, repeats, retries int, traceOut string) error {
	r, err := newRemote(target, retries)
	if err != nil {
		return err
	}
	reqBody, err := json.Marshal(service.WireRunRequest{
		Bench:   bench,
		Sched:   constrainedName(schedName, speedup),
		Scale:   scale,
		Seed:    &seed, // pointer on the wire so seed 0 survives the trip
		Repeats: repeats,
	})
	if err != nil {
		return err
	}
	path := "/run"
	if traceOut != "" {
		path = "/run?trace=1"
	}

	start := time.Now()
	resp, err := r.Do(context.Background(), http.MethodPost, path, reqBody)
	if err != nil {
		return err
	}
	var res service.WireRunResult
	if err := decodeOrError(resp, http.StatusOK, &res); err != nil {
		return err
	}
	if traceOut != "" {
		if len(res.Trace) == 0 {
			return fmt.Errorf("daemon returned no trace (is it a pre-trace build?)")
		}
		if err := os.WriteFile(traceOut, res.Trace, 0o644); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (%d bytes)\n", traceOut, len(res.Trace))
	}

	fmt.Printf("served by %s in %v (simulated on the daemon's warm session)\n",
		target, time.Since(start).Round(time.Millisecond))
	printReport(res.Report)
	fmt.Printf("\nplan searches   %d evaluations this request (0 = served from resident plans)\n", res.PlanEvals)
	fmt.Printf("daemon plans    %d cached, simulated in %.3f s\n", res.PlansCached, res.ElapsedSec)
	if res.PlanStoreError != "" {
		fmt.Printf("warning: daemon could not flush its plan store: %s\n", res.PlanStoreError)
	}
	return nil
}
