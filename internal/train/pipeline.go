package train

import (
	"fmt"
	"sync"

	"znn/internal/tensor"
)

// TrainPipeline is a training session: the one path every training round
// takes. StartPipeline acquires the program's round lock exclusively for
// the whole session (inference rounds and other sessions block until
// Close); within the session, round ordering is enforced per edge by the
// backward fences described in the package doc instead of per round.
//
// Whether rounds overlap is decided by how the caller waits, not by the
// engine. Waiting each round before submitting the next runs them strictly
// one after another (every fence is released by then, so admission is
// immediate) — what Engine.Round does. Submitting round N+1 before waiting
// round N lets N's backward tail and lazy update drain overlap N+1's
// forward head.
//
// A TrainPipeline is not itself safe for concurrent Submit calls: rounds
// are ordered by submission, so the caller owns the submission order.
type TrainPipeline struct {
	en *Engine

	mu     sync.Mutex
	last   *PendingRound
	closed bool
	err    error
}

// PendingRound is one submitted training round. Wait blocks until the
// round has fully completed — including its predecessors in submission
// order — and returns its loss; it is idempotent. An unwaited round is
// completed by the Wait of any later round or by the session's Close.
type PendingRound struct {
	tp   *TrainPipeline
	rs   *RoundState
	prev *PendingRound // predecessor in submission order; nil once waited
	once sync.Once
	loss float64
	err  error
}

// StartPipeline opens a training session on the engine. It blocks until
// every in-flight round (training or inference) has finished, then holds
// the round lock exclusively until the session's Close — the session owns
// the engine.
func (en *Engine) StartPipeline() *TrainPipeline {
	en.p.roundMu.Lock()
	return &TrainPipeline{en: en}
}

// Submit starts one training round on the session and returns its handle
// without waiting: the round's task tree is set in motion immediately, its
// forward tasks admitted edge by edge as the previous round's backward
// fences release. Submission errors (shape validation, closed session) are
// returned here; round execution errors come from the handle's Wait.
func (tp *TrainPipeline) Submit(inputs, desired []*tensor.Tensor) (*PendingRound, error) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if tp.closed {
		return nil, fmt.Errorf("train: Submit on a closed pipeline session")
	}
	rs, err := tp.en.p.NewRound(ModeTrain, [][]*tensor.Tensor{inputs}, desired)
	if err != nil {
		return nil, err
	}
	// Rounds are numbered across sessions: a session's first round gates on
	// the previous session's last, whose fences its Close left released.
	p := tp.en.p
	p.trainSeq++
	rs.fenceSeq = p.trainSeq
	pr := &PendingRound{tp: tp, rs: rs, prev: tp.last}
	tp.last = pr
	rs.Start()
	return pr, nil
}

// Wait blocks until the round has completed and returns its loss. Rounds
// complete in submission order (Wait first waits the predecessor), so
// waiting any round resolves every earlier one.
func (pr *PendingRound) Wait() (float64, error) {
	pr.once.Do(pr.finish)
	return pr.loss, pr.err
}

func (pr *PendingRound) finish() {
	if pr.prev != nil {
		pr.prev.Wait()
		pr.prev = nil // release the chain for GC
	}
	err := pr.rs.Wait()
	// Backstop: release every edge fence this round owns. The normal
	// release happened per edge inside its backward task; a round that
	// errored before reaching some edge's backward would otherwise leave
	// the successor's gated forward wrappers parked forever.
	for _, es := range pr.rs.p.edges {
		es.backwardDone(pr.rs.fenceSeq)
	}
	if err == nil {
		// Training also surfaces the engine's sticky error: a panicked
		// update task means partially applied weights, which no later round
		// outruns.
		err = pr.rs.p.sch.Err()
	}
	pr.err = err
	if err != nil {
		// An errored round leaves Loss and NodeForward reporting the last
		// successful one.
		return
	}
	pr.loss = pr.rs.Loss()
	en := pr.tp.en
	en.mu.Lock()
	en.lastLoss = pr.loss
	en.last = pr.rs
	en.mu.Unlock()
}

// Close waits for every submitted round, releases the engine to other
// callers, and returns the last round's error (the first failure in a
// session generally cascades: later rounds train on the failed round's
// weights). Close is idempotent; Submit after Close fails.
func (tp *TrainPipeline) Close() error {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if tp.closed {
		return tp.err
	}
	tp.closed = true
	if tp.last != nil {
		_, tp.err = tp.last.Wait()
		tp.last = nil
	}
	tp.en.p.roundMu.Unlock()
	return tp.err
}
