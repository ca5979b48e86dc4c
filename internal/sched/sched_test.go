package sched

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSingleTaskRuns(t *testing.T) {
	e := New(2, nil)
	var ran atomic.Bool
	e.Spawn(Work, 1, func() { ran.Store(true) })
	e.WaitWork()
	if !ran.Load() {
		t.Error("task did not run")
	}
	e.Shutdown()
}

func TestManyTasksAllRun(t *testing.T) {
	e := New(4, nil)
	const n = 500
	var count atomic.Int64
	for i := 0; i < n; i++ {
		e.Spawn(Work, int64(i%7), func() { count.Add(1) })
	}
	e.WaitWork()
	if count.Load() != n {
		t.Errorf("ran %d of %d tasks", count.Load(), n)
	}
	e.Shutdown()
}

func TestPriorityOrderSingleWorker(t *testing.T) {
	// With one worker and all tasks pre-queued, execution must follow
	// priority order (FIFO within equal priorities).
	e := New(1, nil)
	var mu sync.Mutex
	var order []int
	gate := make(chan struct{})
	// Block the worker so pushes settle before execution begins.
	e.Spawn(Work, 100, func() { <-gate })
	for i, prio := range []int64{1, 3, 2, 3, 1} {
		i := i
		e.Spawn(Work, prio, func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	close(gate)
	e.WaitWork()
	want := []int{1, 3, 2, 0, 4} // prio 3 first (FIFO: tasks 1,3), then 2, then 1 (0,4)
	mu.Lock()
	defer mu.Unlock()
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
	e.Shutdown()
}

func TestTasksSpawningTasks(t *testing.T) {
	e := New(3, nil)
	var count atomic.Int64
	var spawn func(depth int)
	spawn = func(depth int) {
		count.Add(1)
		if depth < 4 {
			for i := 0; i < 2; i++ {
				e.Spawn(Work, int64(depth), func() { spawn(depth + 1) })
			}
		}
	}
	e.Spawn(Work, 10, func() { spawn(0) })
	e.WaitWork()
	// 1 + 2 + 4 + 8 + 16 = 31 invocations.
	if count.Load() != 31 {
		t.Errorf("ran %d tasks, want 31", count.Load())
	}
	e.Shutdown()
}

func TestForceNilUpdateRunsInline(t *testing.T) {
	e := New(1, nil)
	var ran atomic.Bool
	sub := e.NewTask(Work, 1, func() { ran.Store(true) })
	e.Force(nil, sub)
	if !ran.Load() {
		t.Error("Force(nil, sub) did not run sub inline")
	}
	if s := e.Stats(); s.ForcedInline != 1 {
		t.Errorf("ForcedInline = %d, want 1", s.ForcedInline)
	}
	e.WaitWork()
	e.Shutdown()
}

func TestForceCompletedUpdate(t *testing.T) {
	e := New(1, nil)
	upd := e.Spawn(Update, 0, func() {})
	e.Drain() // let the update complete
	if upd.State() != Completed {
		t.Fatalf("update state = %v, want completed", upd.State())
	}
	var ran atomic.Bool
	sub := e.NewTask(Work, 1, func() { ran.Store(true) })
	e.Force(upd, sub)
	if !ran.Load() {
		t.Error("sub did not run after completed update")
	}
	if s := e.Stats(); s.ForcedInline != 1 {
		t.Errorf("ForcedInline = %d, want 1", s.ForcedInline)
	}
	e.WaitWork()
	e.Shutdown()
}

func TestForceQueuedUpdateStealsAndRuns(t *testing.T) {
	// Block the only worker so the update stays queued, then Force from
	// this thread: both the update and the subtask must run here, in
	// order.
	e := New(1, nil)
	gate := make(chan struct{})
	e.Spawn(Work, 100, func() { <-gate })
	time.Sleep(10 * time.Millisecond) // let the worker pick up the blocker

	var order []string
	var mu sync.Mutex
	upd := e.Spawn(Update, 0, func() {
		mu.Lock()
		order = append(order, "update")
		mu.Unlock()
	})
	sub := e.NewTask(Work, 1, func() {
		mu.Lock()
		order = append(order, "sub")
		mu.Unlock()
	})
	e.Force(upd, sub)
	mu.Lock()
	if len(order) != 2 || order[0] != "update" || order[1] != "sub" {
		t.Errorf("order = %v, want [update sub]", order)
	}
	mu.Unlock()
	if upd.State() != Completed {
		t.Errorf("update state = %v", upd.State())
	}
	if s := e.Stats(); s.ForcedClaimed != 1 {
		t.Errorf("ForcedClaimed = %d, want 1", s.ForcedClaimed)
	}
	close(gate)
	e.Drain()
	e.Shutdown()
}

func TestForceExecutingUpdateAttaches(t *testing.T) {
	// The update runs on a worker and blocks; FORCE must attach the
	// subtask and return immediately; the worker then runs the subtask.
	e := New(1, nil)
	started := make(chan struct{})
	release := make(chan struct{})
	var seq []string
	var mu sync.Mutex
	record := func(s string) {
		mu.Lock()
		seq = append(seq, s)
		mu.Unlock()
	}
	upd := e.Spawn(Update, 0, func() {
		close(started)
		<-release
		record("update")
	})
	<-started // update now Executing on the sole worker
	sub := e.NewTask(Work, 1, func() { record("sub") })
	done := make(chan struct{})
	go func() {
		e.Force(upd, sub) // must return immediately (attach)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Force blocked on an executing update")
	}
	mu.Lock()
	if len(seq) != 0 {
		t.Errorf("sub or update ran before release: %v", seq)
	}
	mu.Unlock()
	close(release)
	e.WaitWork()
	e.Drain()
	mu.Lock()
	if len(seq) != 2 || seq[0] != "update" || seq[1] != "sub" {
		t.Fatalf("sequence = %v, want [update sub]", seq)
	}
	mu.Unlock()
	if s := e.Stats(); s.ForcedAttached != 1 {
		t.Errorf("ForcedAttached = %d, want 1", s.ForcedAttached)
	}
	e.Shutdown()
}

func TestUpdatesRunLazilyWhenIdle(t *testing.T) {
	// Queued updates are executed by idle workers even without FORCE.
	e := New(2, nil)
	var ran atomic.Int64
	for i := 0; i < 5; i++ {
		e.Spawn(Update, 0, func() { ran.Add(1) })
	}
	e.Drain()
	if ran.Load() != 5 {
		t.Errorf("ran %d of 5 updates", ran.Load())
	}
	e.Shutdown()
}

func TestWaitWorkExcludesUpdates(t *testing.T) {
	// WaitWork must return even while an update is still pending.
	e := New(1, nil)
	gate := make(chan struct{})
	blocked := make(chan struct{})
	e.Spawn(Work, 10, func() { close(blocked); <-gate }) // hold the worker
	<-blocked
	e.Spawn(Update, 0, func() {})
	// No more work tasks: WaitWork on a goroutine must complete once the
	// blocker finishes, regardless of the queued update.
	done := make(chan struct{})
	go func() {
		e.WaitWork()
		close(done)
	}()
	close(gate)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("WaitWork blocked on a pending update")
	}
	e.Drain()
	e.Shutdown()
}

func TestPanicInTaskIsCaptured(t *testing.T) {
	e := New(2, nil)
	e.Spawn(Work, 1, func() { panic("boom") })
	var after atomic.Bool
	e.Spawn(Work, 1, func() { after.Store(true) })
	e.WaitWork()
	if e.Err() == nil {
		t.Error("panic not captured")
	}
	if !after.Load() {
		t.Error("engine stopped executing after a panic")
	}
	e.Shutdown()
}

func TestPendingCounters(t *testing.T) {
	e := New(1, nil)
	gate := make(chan struct{})
	blocked := make(chan struct{})
	e.Spawn(Work, 10, func() { close(blocked); <-gate })
	<-blocked
	e.Spawn(Work, 1, func() {})
	e.Spawn(Update, 0, func() {})
	w, u := e.Pending()
	if w != 2 || u != 1 {
		t.Errorf("pending = %d work %d update, want 2 and 1", w, u)
	}
	close(gate)
	e.Drain()
	if w, u := e.Pending(); w != 0 || u != 0 {
		t.Errorf("pending after drain = %d, %d", w, u)
	}
	e.Shutdown()
}

func TestStressRandomDAG(t *testing.T) {
	// A randomized fork/join workload: the engine must execute every task
	// exactly once, with tasks spawning dependents.
	rng := rand.New(rand.NewSource(42))
	var rngMu sync.Mutex
	randn := func(n int) int {
		rngMu.Lock()
		defer rngMu.Unlock()
		return rng.Intn(n)
	}
	e := New(4, nil)
	var executed atomic.Int64
	var expected atomic.Int64
	var spawnRandom func(depth int)
	spawnRandom = func(depth int) {
		executed.Add(1)
		if depth >= 5 {
			return
		}
		kids := randn(3)
		for i := 0; i < kids; i++ {
			expected.Add(1)
			e.Spawn(Work, int64(randn(5)), func() { spawnRandom(depth + 1) })
		}
	}
	for i := 0; i < 20; i++ {
		expected.Add(1)
		e.Spawn(Work, int64(i%5), func() { spawnRandom(0) })
	}
	e.WaitWork()
	if executed.Load() != expected.Load() {
		t.Errorf("executed %d of %d", executed.Load(), expected.Load())
	}
	if err := e.Err(); err != nil {
		t.Error(err)
	}
	e.Shutdown()
}

func TestNewEngineValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0, nil)
}

func TestEnqueueTwicePanics(t *testing.T) {
	e := New(1, nil)
	defer e.Shutdown()
	gate := make(chan struct{})
	blocked := make(chan struct{})
	e.Spawn(Work, 10, func() { close(blocked); <-gate })
	<-blocked
	tk := e.Spawn(Work, 1, func() {})
	defer close(gate)
	defer func() {
		if recover() == nil {
			t.Error("double Enqueue did not panic")
		}
	}()
	e.Enqueue(tk)
}

// TestQuiesce covers the bounded drain: an idle engine quiesces
// immediately, a busy one quiesces once its tasks finish, and a wedged
// task makes Quiesce report false at the deadline instead of hanging.
func TestQuiesce(t *testing.T) {
	e := New(1, nil)
	defer e.Shutdown()

	if !e.Quiesce(10 * time.Millisecond) {
		t.Fatal("idle engine did not quiesce")
	}

	done := make(chan struct{})
	e.Spawn(Work, 1, func() { <-done })
	start := time.Now()
	if e.Quiesce(30 * time.Millisecond) {
		t.Fatal("Quiesce reported idle while a task was wedged")
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatal("Quiesce returned before its deadline")
	}
	close(done)
	if !e.Quiesce(5 * time.Second) {
		t.Fatal("engine did not quiesce after the wedged task finished")
	}
}
