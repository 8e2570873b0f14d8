package robust

import (
	"context"
	"errors"
	"fmt"

	"multiclust/internal/core"
	"multiclust/internal/obs"
)

// RetryBudget is the number of attempts on the deterministic reseed
// schedule seed, seed+1, ..., seed+RetryBudget-1 that Retry makes before a
// degenerate fit is reported as an error.
const RetryBudget = 3

// Retry runs fn up to RetryBudget times on the deterministic seed schedule
// seed, seed+1, ..., and returns on the first attempt whose error is nil or
// not a degenerate outcome (errors.Is ErrDegenerate). Attempt 0 uses the
// caller's original seed, so a run that succeeds first try is
// byte-identical with or without Retry. Attempts follow each other
// immediately: each one is a pure function of its seed, so waiting could
// only add latency.
//
// ctx is checked between attempts: a context that is done stops the
// reseeding with an error wrapping both ErrInterrupted and the last
// degenerate error. On exhaustion (or such an interrupt) Retry returns the
// zero value and the wrapped last error; any other error is returned
// together with fn's value, so an interrupted fit keeps its best-so-far.
//
// The schedule is part of the determinism contract: identical inputs and
// seed produce the identical attempt sequence regardless of worker count.
func Retry[T any](ctx context.Context, seed int64, fn func(seed int64) (T, error)) (T, error) {
	var zero T
	var err error
	for attempt := 0; attempt < RetryBudget; attempt++ {
		if attempt > 0 && ctx.Err() != nil {
			return zero, fmt.Errorf("robust: reseed interrupted before attempt %d (seed %d): %w (last: %w)",
				attempt, seed+int64(attempt), core.ErrInterrupted, err)
		}
		var out T
		out, err = fn(seed + int64(attempt))
		if err == nil || !errors.Is(err, core.ErrDegenerate) {
			return out, err
		}
		// Cold path: only degenerate outcomes reach here, so the recorder
		// lookup costs nothing on the success path.
		obs.Count(obs.Default(), "robust.degenerate_retries", 1)
	}
	return zero, fmt.Errorf("robust: %d attempts with seeds %d..%d all degenerate: %w",
		RetryBudget, seed, seed+int64(RetryBudget-1), err)
}
