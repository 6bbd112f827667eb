// Package backoff is the retry-delay policy of the distributed worker:
// its lease polling and its result reporting. Only the network and a
// restarting coordinator fail transiently; the study engine retries
// nothing, because a unit's preparation is a pure function of the spec
// and a failed one is quarantined. A coordinator restart and a flaky
// network back off the same way — exponentially, capped, and with
// jitter so a fleet of workers does not retry in lockstep.
//
// Delays are deterministic given a Source seed, so retry schedules in
// tests are reproducible; the jitter sample is the only input besides
// the attempt number.
//
// Waiting is always context-aware: there is deliberately no time.Sleep
// in this package (or anywhere under internal/dispatch — cmd/sevlint
// enforces it), because a sleeping goroutine that cannot hear
// cancellation holds up graceful drain.
package backoff

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Policy shapes an exponential backoff schedule: attempt n (0-based)
// waits Base*Factor^n, capped at Max, with the top Jitter fraction of
// the delay randomized so independent retriers spread out.
type Policy struct {
	// Base is the first delay (<= 0: the Default policy's Base).
	Base time.Duration
	// Max caps the grown delay (<= 0: the Default policy's Max).
	Max time.Duration
	// Factor is the per-attempt growth multiplier (< 1: 2).
	Factor float64
	// Jitter in [0, 1] is the fraction of each delay that is
	// randomized: the actual wait is uniform in
	// [delay*(1-Jitter), delay). Zero disables jitter.
	Jitter float64
}

// Default is the policy used when a zero Policy is given: 100ms
// doubling to a 30s ceiling with half the delay jittered.
var Default = Policy{
	Base:   100 * time.Millisecond,
	Max:    30 * time.Second,
	Factor: 2,
	Jitter: 0.5,
}

// norm fills zero fields from Default. A wholly zero Policy is the
// Default itself, jitter included; a partially specified one keeps
// Jitter = 0 meaning "no jitter".
func (p Policy) norm() Policy {
	if p == (Policy{}) {
		return Default
	}
	if p.Base <= 0 {
		p.Base = Default.Base
	}
	if p.Max <= 0 {
		p.Max = Default.Max
	}
	if p.Factor < 1 {
		p.Factor = Default.Factor
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// Delay returns the wait before retry attempt (0-based). u in [0, 1)
// supplies the jitter sample; pass 0 for the deterministic minimum.
func (p Policy) Delay(attempt int, u float64) time.Duration {
	p = p.norm()
	d := float64(p.Base)
	for i := 0; i < attempt; i++ {
		d *= p.Factor
		if d >= float64(p.Max) {
			d = float64(p.Max)
			break
		}
	}
	if d > float64(p.Max) {
		d = float64(p.Max)
	}
	if p.Jitter > 0 {
		d = d*(1-p.Jitter) + u*d*p.Jitter
	}
	return time.Duration(d)
}

// Sleep waits the attempt's (jittered) delay or until ctx is done,
// returning the context error on early wakeup. src supplies the jitter
// sample; nil uses no jitter.
func (p Policy) Sleep(ctx context.Context, attempt int, src *Source) error {
	u := 0.0
	if src != nil {
		u = src.Float64()
	}
	return Wait(ctx, p.Delay(attempt, u))
}

// Wait blocks for d or until ctx is done, whichever comes first. It is
// the context-aware replacement for time.Sleep in retry loops: a
// cancelled context wakes the waiter immediately and its error is
// returned.
func Wait(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Source is a seeded, concurrency-safe jitter sampler. Retriers that
// want reproducible schedules derive the seed from their identity (the
// study engine uses its per-cell seed derivation); retriers that only
// want decorrelation seed from anything distinct.
type Source struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewSource returns a jitter source seeded with seed.
func NewSource(seed int64) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed))}
}

// Float64 returns the next jitter sample in [0, 1).
func (s *Source) Float64() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Float64()
}
