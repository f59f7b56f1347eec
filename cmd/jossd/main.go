// Command jossd is the warm-session daemon: it profiles the simulated
// TX2 and trains the JOSS models once at startup, then serves JSON
// sweep and run requests over HTTP (TCP or a unix socket) from a
// resident service.Session — long-lived worker runtimes, built
// workload graphs shared by every worker, Reset-recycled schedulers and
// the shared persistent plan cache. No request ever trains; with -planstore, a request for
// kernels any previous process trained performs zero plan searches.
//
// Requests execute concurrently: each admitted request becomes a job
// on the session's fair-share dispatcher, whose run units interleave
// over one worker pool — a small probe posted behind a long sweep
// returns without waiting for it.
//
// Usage:
//
//	jossd [-listen ADDR] [-socket PATH] [-parallel N]
//	      [-planstore FILE] [-saveevery N] [-flushevery DUR]
//	      [-pretrain GRID] [-retainjobs N]
//	      [-maxjobs N] [-maxqueue N] [-jobstore FILE]
//	      [-loglevel LEVEL] [-logformat text|json] [-debugaddr ADDR]
//
// -pretrain "bench,...:sched,..." pre-trains the named grid's plans
// before the daemon starts serving — claim-based single-flight
// training through the same dispatcher requests use, so the first
// client sweep over those cells performs zero plan searches. Either
// side of the colon may be "all" or empty for the full set; a bare
// "all" pre-trains everything. -flushevery publishes the plan store on
// a timer (in addition to the request-count cadence of -saveevery), so
// fleet peers see freshly trained plans without waiting for traffic.
//
// -maxjobs/-maxqueue bound admission: excess requests get 429 Too Many
// Requests with a Retry-After hint instead of queueing without bound.
// -jobstore makes async jobs crash-durable: specs are journaled at
// admission and results on completion, so after a crash or restart the
// daemon still serves finished results byte-identically and reports
// jobs that died mid-run as "interrupted". On SIGINT/SIGTERM the
// daemon drains: admission stops (503 + Retry-After), in-flight jobs
// finish, stores flush, then the process exits.
//
// Logging is structured (log/slog): every line carries a level and
// keyed fields, every HTTP request is logged with a process-unique
// request id (echoed to the client as X-Request-Id), and rejections
// surface at warn (4xx, including 429 admission-control storms) or
// error (5xx) so an overloaded or failing daemon is visible by level
// filter alone. -loglevel debug adds a line per request regardless of
// status; -logformat json emits machine-parseable records for log
// shippers.
//
// -debugaddr starts a second, opt-in listener serving net/http/pprof
// (/debug/pprof/...) so live profiles can be pulled from a serving
// daemon without exposing the profiler on the public endpoint.
//
// Endpoints (see internal/service/http.go for the schema):
//
//	POST   /sweep           run a benchmark × scheduler sweep
//	POST   /sweep?stream=1  same, streaming per-cell NDJSON frames
//	POST   /run             run one benchmark under one scheduler
//	POST   /train           pre-train a grid's plans (?async=1 -> job)
//	POST   /jobs            enqueue a sweep as a fire-and-forget job
//	GET    /jobs            list jobs (sweeps and training runs)
//	GET    /jobs/{id}       poll per-cell progress; result once done
//	DELETE /jobs/{id}       cancel (cooperative) or evict when done
//	GET    /healthz         liveness, uptime, workers, build identity
//	GET    /metrics         Prometheus text exposition (?format=json)
//
// Clients: `jossrun -connect http://host:port [-async|-watch ID] ...`
// or plain curl:
//
//	curl -s localhost:7767/run -d '{"bench":"SLU","sched":"JOSS"}'
//	curl -s localhost:7767/jobs -d '{"benchmarks":["SLU"],"repeats":10}'
//	curl -s localhost:7767/jobs/j1
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"joss/internal/buildinfo"
	"joss/internal/service"
)

func main() {
	listen := flag.String("listen", ":7767", "TCP address to serve HTTP on")
	socket := flag.String("socket", "", "unix socket path to serve HTTP on instead of TCP")
	parallel := flag.Int("parallel", 0, "default sweep workers per request (0 = GOMAXPROCS)")
	planStore := flag.String("planstore", "",
		"persistent plan store shared with other jossd/jossbench/jossrun processes: loaded at startup, flushed lock-and-merge after requests")
	saveEvery := flag.Int("saveevery", 1, "flush the plan store every N requests")
	flushEvery := flag.Duration("flushevery", 0,
		"also publish the plan store on this period when it has unsaved plans (0 = request-count cadence only)")
	pretrain := flag.String("pretrain", "",
		"pre-train plans before serving: \"bench,...:sched,...\" ('all' or empty side = full set)")
	retainJobs := flag.Int("retainjobs", 0, "finished jobs kept for /jobs/{id} polling (0 = default 256)")
	maxJobs := flag.Int("maxjobs", 0, "admission bound on concurrently admitted jobs (0 = unbounded); excess requests get 429")
	maxQueue := flag.Int("maxqueue", 0, "admission bound on queued run units across all jobs (0 = unbounded); excess requests get 429")
	jobStore := flag.String("jobstore", "",
		"crash-durable job journal: specs recorded at admission, results on completion, replayed at startup")
	logLevel := flag.String("loglevel", "info", "log level: debug, info, warn or error (debug logs every request)")
	logFormat := flag.String("logformat", "text", "log format: text or json")
	debugAddr := flag.String("debugaddr", "",
		"opt-in address for a second listener serving net/http/pprof under /debug/pprof/ (empty = off)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: jossd [-listen ADDR] [-socket PATH] [-parallel N] [-planstore FILE] [-saveevery N] [-flushevery DUR] [-pretrain GRID] [-retainjobs N] [-maxjobs N] [-maxqueue N] [-jobstore FILE] [-loglevel LEVEL] [-logformat text|json] [-debugaddr ADDR]")
		os.Exit(2)
	}
	if *parallel < 0 || *saveEvery < 1 || *retainJobs < 0 || *maxJobs < 0 || *maxQueue < 0 || *flushEvery < 0 {
		fmt.Fprintln(os.Stderr, "jossd: -parallel must be >= 0, -saveevery >= 1 and -retainjobs/-maxjobs/-maxqueue/-flushevery >= 0")
		os.Exit(2)
	}
	preBenches, preScheds, preOK := parsePretrain(*pretrain)
	if !preOK {
		fmt.Fprintln(os.Stderr, "jossd: -pretrain wants \"bench,...:sched,...\" (either side 'all' or empty), e.g. -pretrain SLU,VG:JOSS or -pretrain all")
		os.Exit(2)
	}
	log, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jossd:", err)
		os.Exit(2)
	}
	slog.SetDefault(log)

	start := time.Now()
	log.Info("starting", "version", buildinfo.String(), "pid", os.Getpid())
	log.Info("profiling platform and training models (once per process)")
	cfg, err := service.DefaultConfig()
	if err != nil {
		log.Error("startup failed", "err", err)
		os.Exit(1)
	}
	cfg.Parallel = *parallel
	cfg.PlanStorePath = *planStore
	cfg.SaveEvery = *saveEvery
	cfg.RetainJobs = *retainJobs
	cfg.MaxJobs = *maxJobs
	cfg.MaxQueuedUnits = *maxQueue
	cfg.JobStorePath = *jobStore
	cfg.PlanFlushPeriod = *flushEvery
	sess, err := service.New(cfg)
	if err != nil {
		log.Error("startup failed", "err", err)
		os.Exit(1)
	}
	trained := []any{"elapsed", time.Since(start).Round(time.Millisecond)}
	if *planStore != "" {
		trained = append(trained, "plans_loaded", sess.Plans().Len(), "planstore", *planStore)
	}
	log.Info("trained", trained...)
	if *jobStore != "" {
		if n := len(sess.RestoredSummaries()); n > 0 {
			log.Info("jobs replayed", "jobs", n, "jobstore", *jobStore)
		}
	}
	if *pretrain != "" {
		log.Info("pre-training plans before serving", "grid", *pretrain)
		t0 := time.Now()
		res, terr := sess.Train(service.TrainRequest{
			Benchmarks: preBenches,
			Schedulers: preScheds,
			Seed:       1,
		})
		if terr != nil {
			log.Error("pre-training failed", "err", terr)
			os.Exit(1)
		}
		log.Info("pre-trained",
			"trained", res.Trained, "keys", res.Keys, "cached", res.Cached,
			"early_stopped", res.EarlyStopped,
			"elapsed", time.Since(t0).Round(time.Millisecond),
			"plans_resident", sess.Plans().Len())
		if res.PlanStoreErr != nil {
			log.Error("pre-training plan-store flush failed", "err", res.PlanStoreErr)
		}
	}

	var ln net.Listener
	if *socket != "" {
		// Remove only a dead daemon's leftover socket file: if
		// something still answers on it, a blind remove would silently
		// steal its traffic instead of failing with address-in-use.
		if c, derr := net.DialTimeout("unix", *socket, time.Second); derr == nil {
			c.Close()
			log.Error("socket is served by a live daemon", "socket", *socket)
			os.Exit(1)
		}
		os.Remove(*socket)
		ln, err = net.Listen("unix", *socket)
	} else {
		ln, err = net.Listen("tcp", *listen)
	}
	if err != nil {
		log.Error("listen failed", "err", err)
		os.Exit(1)
	}
	log.Info("serving", "addr", ln.Addr().String())

	if *debugAddr != "" {
		go serveDebug(*debugAddr, log)
	}

	// The server is hardened against slow or stalled clients: a client
	// must deliver its headers within 10 s and its (<= 1 MiB) body
	// within a minute, and idle keep-alive connections are reaped.
	// WriteTimeout stays generous because /sweep?stream=1 legitimately
	// holds a response open for the length of a large sweep — it bounds
	// a dead client, not a slow sweep.
	srv := &http.Server{
		Handler:           logRequests(log, service.NewHandler(sess)),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      30 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	// Graceful shutdown on SIGINT/SIGTERM, in dependency order: stop
	// admitting (new requests get 503 + Retry-After), stop accepting
	// and drain in-flight HTTP requests, wait out fire-and-forget async
	// jobs no request is attached to (killing one mid-run would lose
	// its journaled result), then flush and close the stores — the plan
	// store a final time, the job journal under its lifetime lock. A
	// second signal forces an immediate exit.
	done := make(chan struct{})
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Info("draining in-flight requests (signal again to force exit)")
		go func() {
			<-sig
			log.Error("forced exit")
			os.Exit(1)
		}()
		sess.StartDrain()
		srv.Shutdown(context.Background())
		sess.WaitIdle()
		if err := sess.Close(); err != nil {
			log.Error("final store flush failed", "err", err)
		}
		if *socket != "" {
			os.Remove(*socket)
		}
		log.Info("stopped")
		close(done)
	}()

	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		log.Error("serve failed", "err", err)
		os.Exit(1)
	}
	<-done
}

// newLogger builds the process logger from the -loglevel/-logformat
// flags. Records go to stderr so output piped from scripts driving the
// daemon never interleaves with log lines.
func newLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("-loglevel wants debug, info, warn or error, got %q", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-logformat wants text or json, got %q", format)
	}
}

// reqSeq numbers requests for X-Request-Id; process-unique is enough
// because the id's job is correlating one response with its log line.
var reqSeq atomic.Int64

// logCapture records the status code for the request log. Flush passes
// through so /sweep?stream=1 keeps flushing per NDJSON frame.
type logCapture struct {
	http.ResponseWriter
	code int
}

func (w *logCapture) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *logCapture) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *logCapture) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logRequests wraps next so every request is visible by log level:
// 5xx at error, 4xx at warn (a 429 admission-control storm shows up as
// a warn storm), everything else at debug. Each request is assigned a
// process-unique id, echoed in the X-Request-Id response header and
// carried on the log line for correlation.
func logRequests(log *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := fmt.Sprintf("r%06d", reqSeq.Add(1))
		w.Header().Set("X-Request-Id", rid)
		lw := &logCapture{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(lw, r)
		code := lw.code
		if code == 0 {
			code = http.StatusOK
		}
		lvl := slog.LevelDebug
		switch {
		case code >= 500:
			lvl = slog.LevelError
		case code >= 400:
			lvl = slog.LevelWarn
		}
		log.Log(r.Context(), lvl, "request",
			"req", rid, "method", r.Method, "path", r.URL.Path,
			"status", code, "elapsed", time.Since(start).Round(time.Microsecond))
	})
}

// serveDebug runs the opt-in pprof listener. The profiler mounts on
// its own mux and address so operators can firewall it independently
// of the serving endpoint; nothing else is registered there.
func serveDebug(addr string, log *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Info("debug listener serving pprof", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Error("debug listener failed", "err", err)
	}
}

// parsePretrain splits a "bench,...:sched,..." grid spec. Either side
// may be "all" or empty (nil list = full set); a bare "all" (no colon)
// selects everything. Name validation is left to the training request,
// which knows the benchmark and scheduler registries.
func parsePretrain(spec string) (benches, scheds []string, ok bool) {
	if spec == "" {
		return nil, nil, true
	}
	side := func(s string) []string {
		if s == "" || strings.EqualFold(s, "all") {
			return nil
		}
		var out []string
		for _, v := range strings.Split(s, ",") {
			if v = strings.TrimSpace(v); v != "" {
				out = append(out, v)
			}
		}
		return out
	}
	b, s, found := strings.Cut(spec, ":")
	if !found {
		if strings.EqualFold(spec, "all") {
			return nil, nil, true
		}
		return nil, nil, false
	}
	return side(b), side(s), true
}
