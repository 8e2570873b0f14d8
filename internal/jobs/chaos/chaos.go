// Package chaos is the service-layer fault-injection harness for the job
// engine: synthetic runners that panic, degenerate, stall, or finish
// instantly, injected through jobs.Config.Runners. The property tests built
// on them assert the engine's resilience invariants — no panic escapes a
// worker or handler, every admitted job reaches exactly one terminal
// state, 429 appears iff the bounded queue is full, and graceful drain
// loses no admitted job.
//
// Like the dataset corrupters in internal/robust/chaos, every fault here
// is deterministic: a runner's behavior is a pure function of the
// (spec, seed) pair it is handed — Degenerate counts attempts off the
// engine's documented seed schedule, Flaky draws from a seeded hash of the
// job seed — so any chaos failure replays from its spec alone.
package chaos

import (
	"context"
	"fmt"
	"math/rand"

	"multiclust/internal/core"
	"multiclust/internal/jobs"
)

// Instant returns a runner that succeeds immediately with a tiny fixed
// outcome — the control group, and the bench harness's dispatch-overhead
// probe.
func Instant() jobs.Runner {
	return func(_ context.Context, spec jobs.Spec, _ int64) (*jobs.Outcome, error) {
		labels := make([]int, len(spec.Points))
		return &jobs.Outcome{Labels: labels, K: 1}, nil
	}
}

// Panicky returns a runner that panics with msg on every attempt. The
// engine must contain it: the job fails with an error wrapping ErrPanic
// and the worker pool keeps serving.
func Panicky(msg string) jobs.Runner {
	return func(context.Context, jobs.Spec, int64) (*jobs.Outcome, error) {
		panic(msg)
	}
}

// Degenerate returns a runner that reports core.ErrDegenerate for the
// first n attempts of a job and succeeds afterwards. Attempts are counted
// deterministically off the engine's reseed schedule (seed - spec.Seed),
// so the runner needs no state and the retry path it exercises is
// replayable.
func Degenerate(n int) jobs.Runner {
	return func(_ context.Context, spec jobs.Spec, seed int64) (*jobs.Outcome, error) {
		attempt := int(seed - spec.Seed)
		if attempt < n {
			return nil, fmt.Errorf("chaos: injected degenerate fit (attempt %d of %d): %w", attempt, n, core.ErrDegenerate)
		}
		labels := make([]int, len(spec.Points))
		return &jobs.Outcome{Labels: labels, K: 1, Stats: map[string]float64{"attempts": float64(attempt + 1)}}, nil
	}
}

// Slow returns a runner that signals onStart (when non-nil), then blocks
// until its context is cancelled — by deadline, DELETE, or drain — and
// returns a best-so-far outcome wrapped in core.ErrInterrupted, exactly as
// the facade's ...Context algorithms do. It is the canonical stuck-job and
// drain-deadline probe.
func Slow(onStart chan<- string) jobs.Runner {
	return func(ctx context.Context, spec jobs.Spec, _ int64) (*jobs.Outcome, error) {
		if onStart != nil {
			onStart <- spec.Algo
		}
		<-ctx.Done()
		labels := make([]int, len(spec.Points))
		for i := range labels {
			labels[i] = core.Noise // nothing was clustered before the cut
		}
		return &jobs.Outcome{Labels: labels, K: 0, Noise: len(labels)},
			fmt.Errorf("chaos: slow job cut short: %w", core.ErrInterrupted)
	}
}

// Flaky returns a runner that fails — a plain error, not a degenerate fit,
// so the engine must NOT retry it — on the deterministic fraction p of job
// seeds, and succeeds on the rest. The decision hashes the job seed
// through a seeded RNG: same spec, same verdict, every run.
func Flaky(p float64) jobs.Runner {
	return func(_ context.Context, spec jobs.Spec, seed int64) (*jobs.Outcome, error) {
		rng := rand.New(rand.NewSource(seed))
		if rng.Float64() < p {
			return nil, fmt.Errorf("chaos: injected hard failure for seed %d", seed)
		}
		labels := make([]int, len(spec.Points))
		return &jobs.Outcome{Labels: labels, K: 1}, nil
	}
}

// TestRunners is the registry the CLI mounts when
// MULTICLUST_JOBS_TESTRUNNERS=1: the standard fault battery under stable
// names, for integration tests driving a real multiclust -serve process.
func TestRunners() map[string]jobs.Runner {
	return map[string]jobs.Runner{
		"chaos-instant":    Instant(),
		"chaos-panic":      Panicky("injected worker panic"),
		"chaos-degenerate": Degenerate(2),
		"chaos-slow":       Slow(nil),
		"chaos-flaky":      Flaky(0.5),
	}
}
