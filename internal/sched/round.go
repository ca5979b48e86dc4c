package sched

// Round tracks the completion of one engine round's Work tasks, so that
// several rounds may be in flight on one scheduler at the same time. The
// original design had a single global pending-work counter and one
// WaitWork, which serializes rounds: with per-round tokens, N forward-only
// inference rounds fan their tasks onto the shared queue and each caller
// waits only for its own round's tasks, keeping every worker busy even
// when a single small or narrow network exposes fewer than worker-count
// independent tasks.
//
// A round's task count is not fixed per graph: a fused inference round
// carrying K volumes spawns per-volume inverse-transform tasks, so its
// pending counts scale with K — the per-round counter and completion
// channel absorb that without any global bookkeeping.
//
// A Round attributes only Work tasks (forward, backward, provider, loss);
// Update tasks apply parameter gradients lazily across round boundaries
// (Algorithm 1's FORCE), so they are deliberately global — they belong to
// the engine, not to the round that spawned them.
type Round struct {
	e *Engine
	// pendingWork is guarded by e.mu and counts this round's Work tasks
	// that are created but not yet completed.
	pendingWork int
	spawned     int64 // total Work tasks ever attributed to the round
	// done is created by Wait and closed by the task completing the
	// round's last pending Work task. A dedicated channel per waiting
	// round (instead of the engine's shared idle cond, which fires only
	// when the engine-wide count reaches 0) lets each of K rounds in
	// flight wake as soon as its own tasks are done.
	done chan struct{}
	// firstErr is the first panic captured from one of this round's Work
	// tasks (guarded by e.mu). Round-task panics are attributed here, not
	// to the engine's sticky global error: with N rounds in flight, one
	// round's failure must not poison every other caller. Update-task
	// panics stay global — they mean partially applied weights, a
	// program-wide corruption.
	firstErr error
}

// NewRound returns a fresh round token for per-round completion tracking.
func (e *Engine) NewRound() *Round { return &Round{e: e} }

// NewTask allocates a task attributed to the round without enqueueing it
// (the FORCE subtask path). Update tasks are counted globally only.
func (r *Round) NewTask(kind Kind, prio int64, fn func()) *Task {
	t := &Task{fn: fn, kind: kind, prio: prio, engine: r.e}
	r.e.mu.Lock()
	if kind == Update {
		r.e.pendingUpdate++
	} else {
		t.round = r
		r.e.pendingWork++
		r.pendingWork++
		r.spawned++
	}
	r.e.mu.Unlock()
	return t
}

// Spawn allocates and enqueues a task attributed to the round.
func (r *Round) Spawn(kind Kind, prio int64, fn func()) *Task {
	t := r.NewTask(kind, prio, fn)
	r.e.Enqueue(t)
	return t
}

// TaskSpec describes one task of a SpawnBatch group.
type TaskSpec struct {
	Prio int64
	Fn   func()
}

// SpawnBatch allocates and enqueues a group of Work tasks attributed to the
// round under a single engine-lock acquisition and a single worker wake-up
// broadcast. Fused K-volume inference rounds use it at every fan-out point:
// their task groups (out-edge sweeps, per-volume inverse transforms) and
// therefore the round's pending counts scale with the batch width K, so
// per-task lock traffic on the shared engine would otherwise scale with K
// too.
func (r *Round) SpawnBatch(specs []TaskSpec) {
	if len(specs) == 0 {
		return
	}
	tasks := make([]*Task, len(specs))
	r.e.mu.Lock()
	for i, s := range specs {
		t := &Task{fn: s.Fn, kind: Work, prio: s.Prio, engine: r.e, round: r}
		r.e.pendingWork++
		r.pendingWork++
		r.spawned++
		tasks[i] = t
	}
	r.e.mu.Unlock()
	for _, t := range tasks {
		t.mu.Lock()
		t.state = Queued
		t.mu.Unlock()
		r.e.q.Push(t.prio, t)
	}
	r.e.mu.Lock()
	r.e.workAvailable.Broadcast()
	r.e.mu.Unlock()
}

// Wait blocks until none of the round's Work tasks remain pending. Other
// rounds' tasks — and lazily executed Update tasks — may still be running
// or queued; Wait does not wait for them.
func (r *Round) Wait() {
	r.e.mu.Lock()
	if r.pendingWork == 0 {
		r.e.mu.Unlock()
		return
	}
	if r.done == nil {
		r.done = make(chan struct{})
	}
	ch := r.done
	r.e.mu.Unlock()
	<-ch
}

// Pending returns the round's outstanding Work task count.
func (r *Round) Pending() int {
	r.e.mu.Lock()
	defer r.e.mu.Unlock()
	return r.pendingWork
}

// Spawned returns the total number of Work tasks attributed to the round.
func (r *Round) Spawned() int64 {
	r.e.mu.Lock()
	defer r.e.mu.Unlock()
	return r.spawned
}

// Err returns the first panic captured from the round's own Work tasks.
func (r *Round) Err() error {
	r.e.mu.Lock()
	defer r.e.mu.Unlock()
	return r.firstErr
}

// DrainUpdates blocks until no Update tasks remain pending, without
// requiring the Work queue to be empty (Drain waits for both kinds).
// Callers use it at the training→inference transition: once the lazy
// update tasks of the last training round have applied their gradients,
// the weights are immutable and forward-only rounds may run concurrently.
func (e *Engine) DrainUpdates() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.pendingUpdate > 0 {
		e.idle.Wait()
	}
}
