// Command e2ebench is the repository's end-to-end benchmark. It starts
// the daemon under test — this binary in --daemon mode, serving a fresh
// session through service.NewHandler on a loopback listener — drives
// one workload against it through the HTTP/JSON wire for a fixed
// window, checks every response, and prints the result as one JSON
// object on the last line of standard output.
//
//	bash e2ebench/run.sh --workload fig8-batch --seed 1 --seconds 20 --trace 0
//
// Workloads: fig8-batch, serve-mixed and cold-start (README.md gives
// the reason for each). With --trace 0 the JSON carries the
// end-to-end metrics; with --trace 1 the same workload runs with the
// same seed and request sequence, and the JSON carries the per-layer
// metrics instead: /metrics counter and histogram diffs across the
// window, Go runtime counters, and an in-process replay of the first
// requests through each layer's public functions with every call
// timed (replay.go). The exit code is non-zero only when the benchmark
// itself cannot run; failed or wrong operations are counted in the
// JSON and make "correct" false.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metric is one named value of the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark run: its arguments, the operation tally and
// the metrics collected so far.
type bench struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	outDir   string // build/scratch directory inside the checkout

	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
	e2e       map[string]metric
	layer     map[string]metric
	info      []string // extra human-readable lines (not in the JSON)
}

// op counts one attempted operation; a non-nil err marks it failed.
func (b *bench) op(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		b.noteLocked(err)
	}
}

// check records a failed output check that is not itself an operation
// (a set-up or post-window verification): it makes the run incorrect
// and counts as a failed attempt.
func (b *bench) check(err error) {
	if err != nil {
		b.op(err)
	}
}

func (b *bench) noteLocked(err error) {
	if len(b.problems) < 8 {
		b.problems = append(b.problems, err.Error())
	}
}

func (b *bench) setE2E(name string, v float64, unit string) { b.e2e[name] = metric{v, unit} }

func (b *bench) setLayer(name string, v float64, unit string) { b.layer[name] = metric{v, unit} }

// note prints an informational metric that is not part of the
// contract's JSON (the workload-specific names the README maps).
func (b *bench) note(name string, v float64, unit string) {
	b.info = append(b.info, fmt.Sprintf("%-32s %14.6g %s", name, v, unit))
}

var workloadRuns = map[string]func(*bench) error{
	"fig8-batch":  runFig8Batch,
	"serve-mixed": runServeMixed,
	"cold-start":  runColdStart,
}

func main() {
	workload := flag.String("workload", "", "fig8-batch, serve-mixed or cold-start")
	seed := flag.Int64("seed", 1, "workload seed (same seed, same requests)")
	seconds := flag.Int("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for journals and span dumps")
	daemon := flag.Bool("daemon", false, "serve one fresh session until stdin closes (the daemon under test)")
	journal := flag.String("journal", "", "with --daemon: job journal path")
	flag.Parse()

	if *daemon {
		if err := runDaemon(*journal); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench daemon:", err)
			os.Exit(1)
		}
		return
	}

	run, ok := workloadRuns[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: e2ebench --workload {fig8-batch|serve-mixed|cold-start} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		outDir:   *out,
		e2e:      make(map[string]metric),
		layer:    make(map[string]metric),
	}
	b.info = append(b.info, fmt.Sprintf("host: nproc %d, GOMAXPROCS %d, %s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()))
	if err := run(b); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if _, ok := b.layer["service.retained_mb_per_session"]; !ok {
		b.setLayer("service.retained_mb_per_session", 0, "MB")
	}
	if b.traced {
		b.setLayer("host.nproc", float64(runtime.NumCPU()), "count")
		b.setLayer("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
	}

	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed}
	if b.attempted < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: no operation was attempted")
		os.Exit(1)
	}
	if b.traced {
		res.Metrics = b.layer
	} else {
		res.Metrics = b.e2e
	}
	for _, line := range b.info {
		fmt.Println(line)
	}
	printMetrics("end-to-end", b.e2e)
	if b.traced {
		printMetrics("per-layer", b.layer)
	}
	for _, p := range b.problems {
		fmt.Println("FAILED:", p)
	}
	enc, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
}

func printMetrics(title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("-- %s --\n", title)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// seedMedian is the mean, over simulation seeds, of each seed's median.
// Seeds cost different amounts, so a plain median over their mixture
// would fall in the gap between two seeds and jump with small noise.
func seedMedian(bySeed map[int64][]float64) float64 {
	sum := 0.0
	for _, xs := range bySeed {
		sum += median(xs)
	}
	return sum / float64(len(bySeed))
}

// median of a copy of xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}
