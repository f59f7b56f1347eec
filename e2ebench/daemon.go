package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"joss/internal/obs"
	"joss/internal/sched"
	"joss/internal/service"
)

// daemon is one daemon process under test — this binary in --daemon
// mode — and a client with one keep-alive connection to it.
type daemon struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	url     string
	journal string
	c       *client
}

// startDaemon starts this binary in --daemon mode (with a job journal
// at journal, when set) and waits for its listen address.
func startDaemon(journal string) (*daemon, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--daemon", "--journal", journal)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening ")
	if err != nil || !ok {
		stdin.Close()
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("daemon did not report its address (%q): %v", line, err)
	}
	url := "http://" + addr
	return &daemon{cmd: cmd, stdin: stdin, url: url, journal: journal, c: newClient(url)}, nil
}

// stop ends the daemon (closing its stdin), waits for it and returns
// its peak resident set in MB. Safe to call more than once.
func (d *daemon) stop() (float64, error) {
	d.c.close()
	d.stdin.Close()
	if d.cmd.ProcessState == nil {
		if err := d.cmd.Wait(); err != nil {
			return 0, fmt.Errorf("daemon: %w", err)
		}
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024, nil
	}
	return 0, nil
}

// setUp starts reps daemons, each put through prepare (the workload's
// set-up requests), stops all but the last and returns it.
// setup_s is the median time from process start to the end of
// prepare. Each daemon journals to its own file under journalDir, when
// set.
func (b *bench) setUp(reps int, journalDir string, prepare func(*daemon) error) (*daemon, error) {
	var setups []float64
	var d *daemon
	for i := 0; i < reps; i++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return nil, err
			}
		}
		journal := ""
		if journalDir != "" {
			journal = filepath.Join(journalDir, fmt.Sprintf("jobs-%d.journal", i))
		}
		start := time.Now()
		var err error
		if d, err = startDaemon(journal); err != nil {
			return nil, err
		}
		if err := prepare(d); err != nil {
			d.stop()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	b.setE2E("setup_s", median(setups), "s")
	return d, nil
}

// window is what a traced run reads from the daemon just before its
// measurement window.
type window struct {
	points []obs.Point
	state  daemonState
}

func (d *daemon) openWindow() (window, error) {
	pts, err := d.c.scrape()
	if err != nil {
		return window{}, err
	}
	st, err := d.state()
	return window{pts, st}, err
}

// closeWindow reads the daemon again after the window and sets the
// per-layer metrics that come from the differences: dispatch, HTTP
// and journal counters, plan stores and Go runtime counters. workers
// is the dispatch pool size.
func (b *bench) closeWindow(d *daemon, w window, workers int, elapsed, tasks float64) error {
	pts, err := d.c.scrape()
	if err != nil {
		return err
	}
	st, err := d.state()
	if err != nil {
		return err
	}
	t := newTally()
	t.add(w.points, pts)
	b.windowLayers(t, float64(workers)*elapsed)
	b.goLayers(st.sub(w.state), tasks)
	b.setLayer("decide.plan_stores", float64(st.PlanStores-w.state.PlanStores), "count")
	return nil
}

// localSession is an in-process session for the benchmark's own
// checks and replays: a scheduler factory over the same trained
// models (DefaultConfig is deterministic).
func localSession() (*service.Session, error) {
	cfg, err := service.DefaultConfig()
	if err != nil {
		return nil, err
	}
	return service.New(cfg)
}

// daemonState is what a daemon reports about itself on /bench/state:
// its plan cache's store image and publication count, and its Go
// runtime counters.
type daemonState struct {
	Plans        []byte `json:"plans"`
	PlanStores   int    `json:"plan_stores"`
	Mallocs      uint64 `json:"mallocs"`
	TotalAlloc   uint64 `json:"total_alloc"`
	NumGC        uint32 `json:"num_gc"`
	PauseTotalNs uint64 `json:"pause_total_ns"`
}

// sub returns the runtime counters accumulated since before.
func (st daemonState) sub(before daemonState) daemonState {
	st.Mallocs -= before.Mallocs
	st.TotalAlloc -= before.TotalAlloc
	st.NumGC -= before.NumGC
	st.PauseTotalNs -= before.PauseTotalNs
	return st
}

// add accumulates another daemon's runtime counters.
func (st *daemonState) add(o daemonState) {
	st.Mallocs += o.Mallocs
	st.TotalAlloc += o.TotalAlloc
	st.NumGC += o.NumGC
	st.PauseTotalNs += o.PauseTotalNs
}

func (d *daemon) state() (daemonState, error) {
	var st daemonState
	data, err := d.c.get("/bench/state")
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	return st, err
}

// runDaemon is the --daemon mode: one fresh session (job journal at
// journal, when set) served by service.NewHandler on a loopback
// listener until standard input closes. It prints "listening <addr>"
// once it accepts connections. /bench/state is the benchmark's own
// route beside the service's.
func runDaemon(journal string) error {
	cfg, err := service.DefaultConfig()
	if err != nil {
		return err
	}
	cfg.JobStorePath = journal
	s, err := service.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/", service.NewHandler(s))
	mux.HandleFunc("GET /bench/state", func(w http.ResponseWriter, r *http.Request) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		st := daemonState{Plans: planImage(s.Plans()), PlanStores: s.Plans().Stores(),
			Mallocs: ms.Mallocs, TotalAlloc: ms.TotalAlloc, NumGC: ms.NumGC, PauseTotalNs: ms.PauseTotalNs}
		json.NewEncoder(w).Encode(st)
	})
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	fmt.Printf("listening %s\n", ln.Addr())
	io.Copy(io.Discard, os.Stdin)
	srv.Close()
	<-done
	return s.Close()
}

// planImage is the plan cache's deterministic store image.
func planImage(pc *sched.PlanCache) []byte {
	var buf bytes.Buffer
	if err := pc.Save(&buf); err != nil {
		return nil
	}
	return buf.Bytes()
}
