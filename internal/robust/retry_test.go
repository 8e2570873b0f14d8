package robust

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"multiclust/internal/core"
	"multiclust/internal/obs"
)

func TestRetryCountsOnlyDegenerateRetries(t *testing.T) {
	col := obs.NewCollector()
	prev := obs.Default()
	obs.SetDefault(col)
	defer obs.SetDefault(prev)

	calls := 0
	if _, err := Retry(context.Background(), 1, func(int64) (int, error) {
		calls++
		return 0, nil
	}); err != nil {
		t.Fatalf("Retry: %v", err)
	}
	if calls != 1 || col.Counter("robust.degenerate_retries") != 0 {
		t.Fatalf("clean first attempt: calls=%d retries=%d, want 1 and 0",
			calls, col.Counter("robust.degenerate_retries"))
	}
	if _, err := Retry(context.Background(), 10, func(seed int64) (int, error) {
		if seed < 12 {
			return 0, fmt.Errorf("degenerate: %w", core.ErrDegenerate)
		}
		return 0, nil
	}); err != nil {
		t.Fatalf("Retry: %v", err)
	}
	if got := col.Counter("robust.degenerate_retries"); got != 2 {
		t.Fatalf("robust.degenerate_retries = %d, want 2", got)
	}
}

func TestRetryInterruptedBetweenAttempts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	_, err := Retry(ctx, 10, func(int64) (int, error) {
		calls++
		cancel() // the cut lands after the first attempt
		return 0, fmt.Errorf("degenerate: %w", core.ErrDegenerate)
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (no attempt after the cancel)", calls)
	}
	if !errors.Is(err, core.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted in %v", err)
	}
	if !errors.Is(err, core.ErrDegenerate) {
		t.Fatalf("want the last degenerate error preserved in %v", err)
	}
}

func TestRetryCancelledContextStopsReseeding(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already done: attempt 0 still runs, no reseed follows
	calls := 0
	v, err := Retry(ctx, 1, func(int64) (int, error) {
		calls++
		return 7, fmt.Errorf("degenerate: %w", core.ErrDegenerate)
	})
	if calls != 1 || v != 0 {
		t.Fatalf("calls=%d v=%d, want 1 attempt and the zero value", calls, v)
	}
	if !errors.Is(err, core.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
}

func TestRetrySeedScheduleUnchanged(t *testing.T) {
	// The historic contract: seeds walk seed, seed+1, ... with no waiting,
	// and exhaustion reports the full range.
	var seeds []int64
	_, err := Retry(context.Background(), 7, func(seed int64) (int, error) {
		seeds = append(seeds, seed)
		return 0, fmt.Errorf("degenerate: %w", core.ErrDegenerate)
	})
	want := []int64{7, 8, 9}
	if len(seeds) != len(want) {
		t.Fatalf("seeds %v, want %v", seeds, want)
	}
	for i := range want {
		if seeds[i] != want[i] {
			t.Fatalf("seeds %v, want %v", seeds, want)
		}
	}
	if !errors.Is(err, core.ErrDegenerate) {
		t.Fatalf("want ErrDegenerate, got %v", err)
	}
	wantMsg := "robust: 3 attempts with seeds 7..9 all degenerate"
	if got := err.Error(); len(got) < len(wantMsg) || got[:len(wantMsg)] != wantMsg {
		t.Fatalf("error %q, want prefix %q", got, wantMsg)
	}
}

func TestRetryReturnsValueOnNonDegenerateError(t *testing.T) {
	// Interrupted algorithms return best-so-far alongside the error; the
	// retry wrapper must pass that pair through untouched.
	v, err := Retry(context.Background(), 1, func(int64) (int, error) {
		return 41, fmt.Errorf("cut short: %w", core.ErrInterrupted)
	})
	if v != 41 {
		t.Fatalf("value = %d, want the best-so-far 41", v)
	}
	if !errors.Is(err, core.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
}
