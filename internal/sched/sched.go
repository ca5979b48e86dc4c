// Package sched implements ZNN's task scheduling and execution engine
// (Section VI of the paper).
//
// Tasks ready for execution sit on a queue ordered by priority (the
// heap-of-lists structure of Section VII-A); a fixed set of worker
// goroutines repeatedly execute the highest-priority task. Update
// tasks are enqueued at the lowest priority and are *forced* lazily: when a
// forward task needs the result of its edge's previous update, FORCE either
// runs the subtask directly (update already completed), steals the queued
// update and runs both (update still queued), or attaches the subtask to
// the in-flight update so the thread executing it continues with the
// forward work (update executing) — no thread ever blocks on an update
// (Algorithms 1–3).
package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"znn/internal/pqueue"
)

// Kind distinguishes normal (forward/backward/provider/loss) tasks from
// update tasks, which have lazy execution semantics and are excluded from
// round-boundary waits.
type Kind int

const (
	// Work tasks are forward, backward, data-provider and loss-gradient
	// tasks; a round is complete when none remain.
	Work Kind = iota
	// Update tasks apply parameter gradients; they run lazily.
	Update
)

// State is the lifecycle of a task.
type State int32

const (
	// Created: allocated, not yet enqueued (FORCE subtasks live here).
	Created State = iota
	// Queued: on the scheduler queue.
	Queued
	// Claimed: stolen from the queue by FORCE; the queue entry is stale.
	Claimed
	// Executing: running on some worker.
	Executing
	// Completed: finished.
	Completed
)

func (s State) String() string {
	switch s {
	case Created:
		return "created"
	case Queued:
		return "queued"
	case Claimed:
		return "claimed"
	case Executing:
		return "executing"
	case Completed:
		return "completed"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Task is a schedulable unit of work.
type Task struct {
	fn     func()
	kind   Kind
	prio   int64
	engine *Engine
	round  *Round // non-nil for Work tasks attributed to a Round

	mu    sync.Mutex
	state State
	sub   *Task // subtask attached by FORCE while Executing
}

// State returns the task's current state.
func (t *Task) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Stats counts scheduler events, used by tests and the benchmark harness.
type Stats struct {
	Executed       int64 // tasks whose fn ran
	ForcedInline   int64 // FORCE found update Completed (or nil)
	ForcedClaimed  int64 // FORCE stole a Queued update
	ForcedAttached int64 // FORCE attached to an Executing update
}

// Engine owns the queue and the worker pool.
type Engine struct {
	q       *pqueue.HeapOfLists
	workers int

	mu            sync.Mutex
	workAvailable *sync.Cond // signalled on push
	idle          *sync.Cond // signalled when a pending counter reaches 0
	pendingWork   int
	pendingUpdate int
	stopped       bool
	firstErr      error
	stats         Stats

	wg sync.WaitGroup
}

// New creates an engine with the given number of workers over the queue q
// (nil means a fresh one) and starts the worker goroutines.
func New(workers int, q *pqueue.HeapOfLists) *Engine {
	if workers < 1 {
		panic(fmt.Sprintf("sched: need at least one worker, got %d", workers))
	}
	if q == nil {
		q = pqueue.NewHeapOfLists()
	}
	e := &Engine{q: q, workers: workers}
	e.workAvailable = sync.NewCond(&e.mu)
	e.idle = sync.NewCond(&e.mu)
	for w := 0; w < workers; w++ {
		e.wg.Add(1)
		go e.workerLoop()
	}
	return e
}

// Workers returns the worker count.
func (e *Engine) Workers() int { return e.workers }

// NewTask allocates a task without enqueueing it. The task counts toward
// the pending totals immediately; it must eventually be enqueued with
// Enqueue or executed via Force.
func (e *Engine) NewTask(kind Kind, prio int64, fn func()) *Task {
	t := &Task{fn: fn, kind: kind, prio: prio, engine: e}
	e.mu.Lock()
	if kind == Update {
		e.pendingUpdate++
	} else {
		e.pendingWork++
	}
	e.mu.Unlock()
	return t
}

// Enqueue places a Created task on the queue.
func (e *Engine) Enqueue(t *Task) {
	t.mu.Lock()
	if t.state != Created {
		t.mu.Unlock()
		panic(fmt.Sprintf("sched: Enqueue of task in state %v", t.state))
	}
	t.state = Queued
	t.mu.Unlock()
	e.q.Push(t.prio, t)
	e.mu.Lock()
	e.workAvailable.Signal()
	e.mu.Unlock()
}

// Spawn allocates and enqueues a task in one step.
func (e *Engine) Spawn(kind Kind, prio int64, fn func()) *Task {
	t := e.NewTask(kind, prio, fn)
	e.Enqueue(t)
	return t
}

// Force implements the FORCE operation of Section VI-B: execute sub, but
// only after update (which may be nil for the first round) has completed,
// without ever blocking the calling thread on another thread's progress.
func (e *Engine) Force(update, sub *Task) {
	if update == nil {
		e.bumpStat(func(s *Stats) { s.ForcedInline++ })
		e.execute(sub)
		return
	}
	update.mu.Lock()
	switch update.state {
	case Completed:
		update.mu.Unlock()
		e.bumpStat(func(s *Stats) { s.ForcedInline++ })
		e.execute(sub)
	case Queued:
		// Steal the update from the queue: mark it Claimed so the worker
		// that eventually pops the stale entry skips it, then run the
		// update and the subtask on this thread.
		update.state = Claimed
		update.mu.Unlock()
		e.bumpStat(func(s *Stats) { s.ForcedClaimed++ })
		e.run(update)
		e.execute(sub)
	case Executing:
		// Delegate: the thread executing the update runs the subtask as
		// soon as the update completes; this thread returns to the queue.
		update.sub = sub
		update.mu.Unlock()
		e.bumpStat(func(s *Stats) { s.ForcedAttached++ })
	default:
		st := update.state
		update.mu.Unlock()
		panic(fmt.Sprintf("sched: Force on update task in state %v", st))
	}
}

// execute transitions a Created task straight to Executing and runs it on
// the calling thread.
func (e *Engine) execute(t *Task) {
	t.mu.Lock()
	if t.state != Created {
		st := t.state
		t.mu.Unlock()
		panic(fmt.Sprintf("sched: execute of task in state %v", st))
	}
	t.state = Executing
	t.mu.Unlock()
	e.runBody(t)
}

// run transitions a Claimed task to Executing and runs it.
func (e *Engine) run(t *Task) {
	t.mu.Lock()
	if t.state != Claimed {
		st := t.state
		t.mu.Unlock()
		panic(fmt.Sprintf("sched: run of task in state %v", st))
	}
	t.state = Executing
	t.mu.Unlock()
	e.runBody(t)
}

// runBody executes the task function, completes the task, and runs any
// subtask attached by FORCE while the task was executing. Panics inside
// task functions are recorded (first one wins) and the engine keeps
// operating so waiters do not deadlock.
func (e *Engine) runBody(t *Task) {
	func() {
		defer func() {
			if r := recover(); r != nil {
				err := fmt.Errorf("sched: task panicked: %v", r)
				e.mu.Lock()
				if rd := t.round; rd != nil {
					if rd.firstErr == nil {
						rd.firstErr = err
					}
				} else if e.firstErr == nil {
					e.firstErr = err
				}
				e.mu.Unlock()
			}
		}()
		t.fn()
	}()
	t.mu.Lock()
	t.state = Completed
	sub := t.sub
	t.sub = nil
	t.mu.Unlock()

	e.mu.Lock()
	woke := false
	if t.kind == Update {
		e.pendingUpdate--
		if e.pendingUpdate == 0 {
			e.idle.Broadcast()
		}
	} else {
		e.pendingWork--
		if e.pendingWork == 0 {
			e.idle.Broadcast()
		}
		if r := t.round; r != nil {
			r.pendingWork--
			if r.pendingWork == 0 && r.done != nil {
				close(r.done)
				r.done, woke = nil, true // a reused round gets a fresh channel
			}
		}
	}
	e.stats.Executed++
	e.mu.Unlock()
	if woke {
		runtime.Gosched() // run the woken waiter now, not at the next preemption tick
	}
	if sub != nil {
		e.execute(sub)
	}
}

func (e *Engine) bumpStat(f func(*Stats)) {
	e.mu.Lock()
	f(&e.stats)
	e.mu.Unlock()
}

// workerLoop is the body of each worker goroutine.
func (e *Engine) workerLoop() {
	defer e.wg.Done()
	for {
		it, ok := e.q.Pop()
		if !ok {
			e.mu.Lock()
			// Re-check under the lock to avoid missing a push.
			if e.q.Len() == 0 && !e.stopped {
				e.workAvailable.Wait()
			}
			stopped := e.stopped
			e.mu.Unlock()
			if stopped && e.q.Len() == 0 {
				return
			}
			continue
		}
		t := it.(*Task)
		t.mu.Lock()
		if t.state != Queued {
			// Claimed by FORCE after being pushed; drop the stale entry.
			t.mu.Unlock()
			continue
		}
		t.state = Executing
		t.mu.Unlock()
		e.runBody(t)
	}
}

// WaitWork blocks until no Work tasks remain pending (queued, executing,
// or created-but-unexecuted). Update tasks may still be pending — they run
// lazily, exactly as in the paper.
func (e *Engine) WaitWork() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.pendingWork > 0 {
		e.idle.Wait()
	}
}

// Drain blocks until no tasks of either kind remain. Queued update tasks
// are executed by the idle workers ("the only other time the update tasks
// will be executed is if there's no other forward or backward tasks ready
// to be executed").
func (e *Engine) Drain() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.pendingWork > 0 || e.pendingUpdate > 0 {
		e.idle.Wait()
	}
}

// Quiesce blocks until no tasks of either kind remain or d elapses,
// reporting whether the engine went idle. It is the bounded-drain hook for
// graceful shutdown: a server draining in-flight rounds on SIGTERM wants
// Drain's semantics but cannot wait forever on a wedged round. On timeout
// the engine is left running (tasks keep executing); the caller decides
// whether to abandon it.
func (e *Engine) Quiesce(d time.Duration) bool {
	deadline := time.Now().Add(d)
	done := make(chan struct{})
	var timedOut atomic.Bool
	// The idle condition variable has no native timed wait; a watchdog
	// goroutine wakes the waiters at the deadline so the loop below can
	// re-check the clock.
	go func() {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-done:
		case <-timer.C:
			timedOut.Store(true)
			e.mu.Lock()
			e.idle.Broadcast()
			e.mu.Unlock()
		}
	}()
	e.mu.Lock()
	for (e.pendingWork > 0 || e.pendingUpdate > 0) && !timedOut.Load() && time.Now().Before(deadline) {
		e.idle.Wait()
	}
	idle := e.pendingWork == 0 && e.pendingUpdate == 0
	e.mu.Unlock()
	close(done)
	return idle
}

// Pending returns the numbers of pending Work and Update tasks.
func (e *Engine) Pending() (work, update int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pendingWork, e.pendingUpdate
}

// Err returns the first panic captured from a task function not
// attributed to a Round (update tasks and round-less work); round-task
// panics are reported by Round.Err.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.firstErr
}

// Stats returns a snapshot of the scheduler counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Shutdown stops the workers after the queue empties and waits for them to
// exit. The engine must not be used afterwards.
func (e *Engine) Shutdown() {
	e.mu.Lock()
	e.stopped = true
	e.workAvailable.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
}
