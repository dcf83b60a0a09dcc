package federate

import (
	"context"
	"sync"
	"time"
)

// pausableDeadline is a context enforcing a per-attempt deadline over
// *active* time only: Pause/Resume bracket intervals the worker spends
// blocked handing solutions on while the yield that Fanout.Run pushes
// rows into is slow, so a slow reader cannot burn an endpoint's attempt
// budget (the endpoint is not the one being slow). The ROADMAP calls this
// backpressure-aware deadlines. They bracket the worker's owl:sameAs
// lookups (RepCache.canonicalise) too: a slow coref source is not the
// endpoint's fault either. The active time, charged, is also the
// endpoint's latency sample and the clock a hedge waits on.
//
// It implements context.Context: Done fires when the active-time budget
// runs out (Err then reports context.DeadlineExceeded) or when the parent
// is cancelled; Deadline reports the current projected expiry so callers
// that inject their own default timeout on deadline-less contexts (the
// endpoint client) leave it alone.
type pausableDeadline struct {
	context.Context // cancellable child of the attempt's parent
	cancel          context.CancelCauseFunc

	mu        sync.Mutex
	timer     *time.Timer
	remaining time.Duration // active budget left as of resumedAt / pause
	resumedAt time.Time     // when the clock last started running
	paused    int           // pause depth (pushes can nest across retries)
	expired   bool
	budget    time.Duration
}

// newPausableDeadline starts the active-time clock immediately. Callers
// must call Stop when the attempt finishes.
func newPausableDeadline(parent context.Context, d time.Duration) *pausableDeadline {
	ctx, cancel := context.WithCancelCause(parent)
	p := &pausableDeadline{
		Context:   ctx,
		cancel:    cancel,
		remaining: d,
		resumedAt: time.Now(),
		budget:    d,
	}
	p.timer = time.AfterFunc(d, p.expire)
	return p
}

// expire cancels with a DeadlineExceeded cause, so transports reading
// context.Cause (net/http does) report the timeout, not a bare
// cancellation.
func (p *pausableDeadline) expire() {
	p.mu.Lock()
	p.expired = true
	p.mu.Unlock()
	p.cancel(context.DeadlineExceeded)
}

// Pause stops the active-time clock (the worker is blocked on the
// consumer or the coref source, not on the endpoint).
func (p *pausableDeadline) Pause() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.paused++
	if p.paused > 1 || p.expired {
		return
	}
	if p.timer.Stop() {
		p.remaining -= time.Since(p.resumedAt)
		if p.remaining < 0 {
			p.remaining = 0
		}
	}
}

// Resume restarts the clock with whatever budget remains.
func (p *pausableDeadline) Resume() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.paused--
	if p.paused > 0 || p.expired {
		return
	}
	p.resumedAt = time.Now()
	p.timer.Reset(p.remaining)
}

// charged is the attempt's active time so far.
func (p *pausableDeadline) charged() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.expired:
		return p.budget
	case p.paused > 0:
		return p.budget - p.remaining
	}
	return p.budget - p.remaining + time.Since(p.resumedAt)
}

// Stop releases the timer; the context is cancelled as a side effect, so
// only call it once the attempt is over.
func (p *pausableDeadline) Stop() {
	p.timer.Stop()
	p.cancel(context.Canceled)
}

// Deadline projects the current expiry. While paused the budget is not
// running, so the projection floats; the reported time is best-effort
// (Done is authoritative), which is all the contract requires.
func (p *pausableDeadline) Deadline() (time.Time, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.paused > 0 {
		return time.Now().Add(p.remaining), true
	}
	return p.resumedAt.Add(p.remaining), true
}

// Err reports context.DeadlineExceeded when the active-time budget
// expired (the underlying cancellation would misreport it as Canceled).
func (p *pausableDeadline) Err() error {
	err := p.Context.Err()
	if err == nil {
		return nil
	}
	p.mu.Lock()
	expired := p.expired
	p.mu.Unlock()
	if expired {
		return context.DeadlineExceeded
	}
	return err
}
