package mpi

import (
	"context"
	"fmt"

	"dragonfly/internal/sim"
)

// checkEverySteps is how many engine events the scheduler executes between
// two cancellation checks while it waits for a rank to become runnable. The
// check is a single atomic load on the context, so the interval only bounds
// how long a cancelled run keeps simulating, not the simulated behaviour.
const checkEverySteps = 4096

// Scheduler is the cooperative rank scheduler: it owns the run loop that used
// to live inside Comm.Run and interleaves the runnable ranks of *all* attached
// communicators with the discrete event engine. Exactly one goroutine (a rank
// or the scheduler driving the engine) runs at a time, so a multi-job run is
// as deterministic as a single-job one: ranks resume in FIFO order of the
// runnable queue, and the queue is fed in Start order and then in engine event
// order.
//
// A Scheduler is not safe for concurrent use; Run/Drain must not be called
// concurrently with themselves or each other.
type Scheduler struct {
	engine   *sim.Engine
	runnable []*Rank
	notify   chan *Rank
	// live is the number of unfinished ranks across all attached comms.
	live int
	// comms lists every communicator ever attached (Start), so Shutdown can
	// find and release ranks still parked after an abandoned run.
	comms []*Comm
}

// errRankAborted is the unwind sentinel Shutdown injects into parked rank
// goroutines; the Start wrapper recovers it (and only it).
var errRankAborted = fmt.Errorf("mpi: rank aborted by scheduler shutdown")

// NewScheduler builds a scheduler over the given engine.
func NewScheduler(engine *sim.Engine) *Scheduler {
	return &Scheduler{engine: engine, notify: make(chan *Rank)}
}

// Engine returns the engine the scheduler drives.
func (s *Scheduler) Engine() *sim.Engine { return s.engine }

// Live reports the number of attached ranks that have not finished their
// current program.
func (s *Scheduler) Live() int { return s.live }

// markRunnable re-queues a rank whose pending operation completed. It must be
// called from the scheduler goroutine (engine event callbacks qualify).
func (s *Scheduler) markRunnable(r *Rank) {
	if r.queued || r.finished {
		return
	}
	r.queued = true
	s.runnable = append(s.runnable, r)
}

// runRunnable resumes runnable ranks in FIFO order until none are left. When
// the last rank of a communicator finishes, the communicator's finish time is
// stamped and its OnFinished hook runs — the hook may Start the communicator
// again (the facade uses this to chain measurement iterations), which feeds
// the queue and keeps the loop going.
func (s *Scheduler) runRunnable() {
	for len(s.runnable) > 0 {
		r := s.runnable[0]
		s.runnable = s.runnable[1:]
		r.queued = false
		if r.finished {
			continue
		}
		r.resume <- struct{}{}
		<-s.notify
		if r.finished {
			s.live--
			c := r.comm
			c.remaining--
			if c.remaining == 0 {
				c.finishedAt = s.engine.Now()
				if c.onFinished != nil {
					c.onFinished()
				}
			}
		}
	}
}

// stepUntil executes engine events until a rank becomes runnable or the queue
// empties, checking the cancellation hook every checkEverySteps events.
func (s *Scheduler) stepUntil(check func() error) error {
	steps := 0
	for s.engine.Pending() > 0 && len(s.runnable) == 0 {
		stepped, err := s.engine.Step()
		if err != nil {
			return err
		}
		if !stepped {
			break
		}
		if steps++; check != nil && steps%checkEverySteps == 0 {
			if err := check(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run drives the simulation until every rank of every attached communicator
// has finished its program. It returns an error on deadlock (no rank can make
// progress and no simulation events remain) or when the optional check hook
// reports one (cancellation). Pending engine events beyond the last rank's
// completion — background noise, telemetry ticks — are left queued, exactly as
// the historical Comm.Run left them.
func (s *Scheduler) Run(check func() error) error {
	defer s.shutdownOnPanic()
	for s.live > 0 {
		if check != nil {
			if err := check(); err != nil {
				return err
			}
		}
		s.runRunnable()
		if s.live == 0 {
			break
		}
		// No rank is runnable: advance simulated time until one becomes so.
		if err := s.stepUntil(check); err != nil {
			return err
		}
		if len(s.runnable) == 0 {
			return fmt.Errorf("mpi: deadlock, %d ranks blocked with no pending events", s.live)
		}
	}
	return nil
}

// Drain drives the simulation until the event queue is empty and no attached
// rank remains unfinished. Unlike Run it does not stop when the attached
// communicators finish: it keeps executing events (job arrivals, background
// traffic) that may attach *new* communicators mid-run — the batch scheduler
// relies on this to co-run workload-driven jobs that start at simulated
// arrival times. It is the rank-aware equivalent of Engine.Run.
func (s *Scheduler) Drain(check func() error) error {
	defer s.shutdownOnPanic()
	for {
		if check != nil {
			if err := check(); err != nil {
				return err
			}
		}
		s.runRunnable()
		if s.engine.Pending() == 0 {
			if s.live > 0 {
				return fmt.Errorf("mpi: deadlock, %d ranks blocked with no pending events", s.live)
			}
			return nil
		}
		if err := s.stepUntil(check); err != nil {
			return err
		}
	}
}

// shutdownOnPanic releases parked ranks when a panic escapes the drive loop
// (an engine event callback or an OnFinished hook blowing up), then lets the
// panic continue. Callers that recover such panics — the trial harness
// captures them per trial — would otherwise strand every unfinished rank
// goroutine, exactly the leak Shutdown exists to prevent. At every point a
// panic can escape Run or Drain, the unfinished ranks are parked (a rank only
// executes while the drive loop is blocked handing it the turn), so Shutdown
// is safe here.
func (s *Scheduler) shutdownOnPanic() {
	if r := recover(); r != nil {
		s.Shutdown()
		panic(r)
	}
}

// Shutdown releases the rank goroutines an abandoned run left parked: every
// unfinished rank of every attached communicator is resumed one last time
// with its abort flag set, unwinds out of its program, and exits. Call it
// after Run or Drain returned an error (cancellation, deadlock) when the
// simulation will not be driven further — without it those goroutines (and
// everything their programs reference) live for the rest of the process.
//
// Shutdown is idempotent and safe on a scheduler whose runs all completed
// (it finds nothing to release). The attached communicators must not be
// reused afterwards: their in-flight collectives and mailboxes are torn
// mid-operation.
func (s *Scheduler) Shutdown() {
	for _, c := range s.comms {
		for _, r := range c.ranks {
			if r.finished {
				continue
			}
			// Every unfinished rank is parked on <-r.resume (either in
			// block() or at the wrapper's initial handshake): exactly one
			// resume reaches it, and the wrapper's notify confirms the exit.
			r.aborted = true
			r.resume <- struct{}{}
			<-s.notify
			s.live--
			c.remaining--
		}
	}
	s.runnable = s.runnable[:0]
}

// ContextCheck adapts a context to the scheduler's cancellation hook shape.
// A nil context yields a nil hook (no checking).
func ContextCheck(ctx context.Context) func() error {
	if ctx == nil {
		return nil
	}
	return func() error { return ctx.Err() }
}
