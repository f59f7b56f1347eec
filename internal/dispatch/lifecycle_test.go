package dispatch

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"joss/internal/obs"
)

// TestCancelRacesCompletions races Cancel against units completing on
// other workers, with metrics installed so Cancel takes its post-unlock
// accounting path. Under -race it catches Cancel reading job state
// after releasing the pool lock; in any build it checks the accounting
// closes: every unit is done or dropped exactly once, in Progress and
// in the metric counters alike.
func TestCancelRacesCompletions(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	m := NewMetrics(obs.NewRegistry(), p)
	p.SetMetrics(m)
	const rounds, cells, repeats = 50, 8, 4
	total, cancelled := 0, 0
	for r := 0; r < rounds; r++ {
		started := make(chan struct{}, cells*repeats)
		gate := make(chan struct{})
		j := mustAdmit(t, p, Spec{
			Cells:   cells,
			Repeats: repeats,
			Costs:   make([]int, cells),
			Width:   4,
			Run: func(int, Unit) {
				started <- struct{}{}
				<-gate
			},
		})
		total += cells * repeats
		<-started // at least one unit is in flight
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				j.Cancel()
				_ = j.Progress()
			}()
		}
		close(gate) // in-flight units complete while the cancels land
		j.Cancel()
		wg.Wait()
		j.Wait()
		pr := j.Progress()
		if !pr.Finished || pr.InFlight != 0 || pr.Done+pr.Dropped != pr.Total {
			t.Fatalf("round %d: progress %+v, want finished with done+dropped == total", r, pr)
		}
		if pr.Cancelled {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no round's Cancel landed before its job finished; the race was never exercised")
	}
	// UnitsDone is bumped before the worker retakes the lock to book the
	// unit, so the counters settle an instant after the last Wait.
	deadline := time.Now().Add(5 * time.Second)
	for m.UnitsDone.Value()+m.UnitsDropped.Value() != int64(total) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := m.UnitsDone.Value() + m.UnitsDropped.Value(); got != int64(total) {
		t.Fatalf("metrics count %d done + dropped units, want %d", got, total)
	}
}

// TestFinishedJobIsCollected pins that the pool forgets a job once its
// last unit is dispatched: neither the job nor what its Run closure
// captures may stay reachable from the pool after it finishes (a
// removed job lingering in the jobs backing array used to pin a whole
// discarded service session).
func TestFinishedJobIsCollected(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	admit := func(cancel bool) (weak.Pointer[Job], weak.Pointer[[64]byte]) {
		pinned := new([64]byte)
		j := mustAdmit(t, p, Spec{
			Cells: 2, Repeats: 2, Costs: []int{1, 1}, Width: 2,
			Run: func(int, Unit) { _ = pinned[0] },
		})
		if cancel {
			j.Cancel()
		}
		j.Wait()
		return weak.Make(j), weak.Make(pinned)
	}
	for _, cancel := range []bool{false, true} {
		wj, wc := admit(cancel)
		// A worker holds the job until it loops back to pick, just after
		// Wait returns; give it a moment.
		deadline := time.Now().Add(5 * time.Second)
		for (wj.Value() != nil || wc.Value() != nil) && time.Now().Before(deadline) {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if wj.Value() != nil || wc.Value() != nil {
			t.Fatalf("cancel=%v: finished job still reachable (job %v, closure capture %v)",
				cancel, wj.Value() != nil, wc.Value() != nil)
		}
	}
}
