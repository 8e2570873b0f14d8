package chaos_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"multiclust/internal/core"
	"multiclust/internal/jobs"
	"multiclust/internal/jobs/chaos"
	"multiclust/internal/robust"
)

func points() [][]float64 {
	return [][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
}

// terminalLog records every OnTerminal callback; the exactly-once property
// is asserted against it in addition to each job's own FinishCalls counter.
type terminalLog struct {
	mu   sync.Mutex
	seen map[string]int
}

func newTerminalLog() *terminalLog {
	return &terminalLog{seen: map[string]int{}}
}

func (l *terminalLog) hook(j *jobs.Job, _ jobs.State) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seen[j.ID]++
}

func (l *terminalLog) count(id string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen[id]
}

func drainOrDie(t *testing.T, e *jobs.Engine, timeout time.Duration) jobs.DrainReport {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return e.Drain(ctx)
}

// TestPropertyNoPanicEscapes floods every worker with panicking runners; the
// process must survive, every job must fail with a contained ErrPanic, and
// the pool must still serve ordinary work afterwards.
func TestPropertyNoPanicEscapes(t *testing.T) {
	e := jobs.New(jobs.Config{Workers: 3, QueueSize: 64, Runners: chaos.TestRunners()})
	defer drainOrDie(t, e, 10*time.Second)

	var panicky []*jobs.Job
	for i := 0; i < 12; i++ {
		j, _, err := e.Submit(jobs.Spec{Algo: "chaos-panic", Points: points(), Seed: int64(i)})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		panicky = append(panicky, j)
	}
	for _, j := range panicky {
		<-j.Done()
		if j.State() != jobs.StateFailed {
			t.Fatalf("panicking job %s state = %s, want failed", j.ID, j.State())
		}
		if !errors.Is(j.Err(), core.ErrPanic) {
			t.Fatalf("job %s err = %v, want contained ErrPanic", j.ID, j.Err())
		}
		if j.FinishCalls() != 1 {
			t.Fatalf("job %s finishCalls = %d", j.ID, j.FinishCalls())
		}
	}
	// The pool survived: a normal job still completes.
	j, _, err := e.Submit(jobs.Spec{Algo: "chaos-instant", Points: points()})
	if err != nil {
		t.Fatalf("Submit after panics: %v", err)
	}
	<-j.Done()
	if j.State() != jobs.StateDone {
		t.Fatalf("post-panic job state = %s, want done", j.State())
	}
}

// TestPropertyExactlyOneTerminalState runs the whole fault battery — panics,
// degenerate retries, hard failures, slow jobs raced with cancels — and
// asserts every admitted job lands in exactly one terminal state exactly
// once, observed both by FinishCalls and the OnTerminal hook.
func TestPropertyExactlyOneTerminalState(t *testing.T) {
	log := newTerminalLog()
	runners := chaos.TestRunners()
	e := jobs.New(jobs.Config{
		Workers: 4, QueueSize: 128,
		Runners: runners, OnTerminal: log.hook,
	})

	battery := []string{"chaos-instant", "chaos-panic", "chaos-degenerate", "chaos-flaky", "chaos-slow"}
	var admitted []*jobs.Job
	for i := 0; i < 40; i++ {
		algo := battery[i%len(battery)]
		timeout := int64(0)
		if algo == "chaos-slow" {
			timeout = 40 // short deadline: the slow job settles as partial
		}
		j, _, err := e.Submit(jobs.Spec{Algo: algo, Points: points(), Seed: int64(i), TimeoutMS: timeout})
		if err != nil {
			t.Fatalf("Submit %d (%s): %v", i, algo, err)
		}
		admitted = append(admitted, j)
		if algo == "chaos-slow" && i%2 == 0 {
			// Race a user cancel against the deadline on half the slow jobs.
			if _, err := e.Cancel(j.ID); err != nil {
				t.Fatalf("Cancel %s: %v", j.ID, err)
			}
		}
	}

	rep := drainOrDie(t, e, 30*time.Second)
	if rep.Truncated {
		t.Fatalf("drain truncated: %+v", rep)
	}
	for _, j := range admitted {
		if !j.State().Terminal() {
			t.Fatalf("job %s (%s) not terminal after drain: %s", j.ID, j.Spec.Algo, j.State())
		}
		if j.FinishCalls() != 1 {
			t.Fatalf("job %s (%s) finishCalls = %d, want exactly 1", j.ID, j.Spec.Algo, j.FinishCalls())
		}
		if got := log.count(j.ID); got != 1 {
			t.Fatalf("job %s observed %d OnTerminal callbacks, want exactly 1", j.ID, got)
		}
	}
	if total := rep.Done + rep.Partial + rep.Failed + rep.Cancelled; total != len(admitted) {
		t.Fatalf("drain report %+v accounts for %d jobs, %d admitted", rep, total, len(admitted))
	}
}

// TestProperty429IffQueueFull pins the backpressure contract from both
// sides: every submit while the queue has room is admitted, the first
// submit against a full queue fails with ErrQueueFull, and room freed by a
// completing job admits again.
func TestProperty429IffQueueFull(t *testing.T) {
	const workers, queueSize = 2, 3
	started := make(chan string, workers)
	runners := chaos.TestRunners()
	runners["chaos-slow"] = chaos.Slow(started)
	e := jobs.New(jobs.Config{Workers: workers, QueueSize: queueSize, Runners: runners})
	// One blocker stays running on purpose; the deferred drain truncates
	// it to best-so-far rather than serving out its 60s timeout.
	defer drainOrDie(t, e, 300*time.Millisecond)

	// Occupy every worker.
	var blockers []*jobs.Job
	for i := 0; i < workers; i++ {
		j, _, err := e.Submit(jobs.Spec{Algo: "chaos-slow", Points: points(), TimeoutMS: 60000, Seed: int64(i)})
		if err != nil {
			t.Fatalf("Submit blocker %d: %v", i, err)
		}
		blockers = append(blockers, j)
	}
	for i := 0; i < workers; i++ {
		<-started
	}

	// Fill the queue exactly: each of these must be admitted (not yet full).
	for i := 0; i < queueSize; i++ {
		if err := e.Ready(); err != nil {
			t.Fatalf("Ready with %d/%d queued = %v, want nil", i, queueSize, err)
		}
		if _, _, err := e.Submit(jobs.Spec{Algo: "chaos-instant", Points: points(), Seed: int64(100 + i)}); err != nil {
			t.Fatalf("Submit fill %d: %v — rejected below capacity", i, err)
		}
	}
	// Now, and only now, the queue is full.
	if err := e.Ready(); !errors.Is(err, jobs.ErrQueueFull) {
		t.Fatalf("Ready at capacity = %v, want ErrQueueFull", err)
	}
	if _, _, err := e.Submit(jobs.Spec{Algo: "chaos-instant", Points: points()}); !errors.Is(err, jobs.ErrQueueFull) {
		t.Fatalf("Submit at capacity = %v, want ErrQueueFull", err)
	}

	// Free a worker; the queue drains and admission resumes.
	if _, err := e.Cancel(blockers[0].ID); err != nil {
		t.Fatalf("Cancel blocker: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _, err := e.Submit(jobs.Spec{Algo: "chaos-instant", Points: points(), Seed: 999})
		if err == nil {
			break
		}
		if !errors.Is(err, jobs.ErrQueueFull) {
			t.Fatalf("Submit after freeing a worker: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never drained after a worker was freed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPropertyDrainLosesNoJob checks the graceful-drain guarantee under the
// truncation path: stuck jobs plus a backlog, a deadline far shorter than
// any job, and still every admitted job must be terminal when Drain returns.
func TestPropertyDrainLosesNoJob(t *testing.T) {
	e := jobs.New(jobs.Config{Workers: 2, QueueSize: 32, Runners: chaos.TestRunners()})

	var admitted []*jobs.Job
	for i := 0; i < 10; i++ {
		j, _, err := e.Submit(jobs.Spec{Algo: "chaos-slow", Points: points(), TimeoutMS: 60000, Seed: int64(i)})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		admitted = append(admitted, j)
	}

	rep := drainOrDie(t, e, 150*time.Millisecond)
	if !rep.Truncated {
		t.Fatal("a pool of 60s jobs drained without truncation in 150ms")
	}
	for _, j := range admitted {
		if !j.State().Terminal() {
			t.Fatalf("job %s lost by drain: state %s", j.ID, j.State())
		}
		if j.FinishCalls() != 1 {
			t.Fatalf("job %s finishCalls = %d", j.ID, j.FinishCalls())
		}
	}
	if total := rep.Done + rep.Partial + rep.Failed + rep.Cancelled; total != len(admitted) {
		t.Fatalf("report %+v accounts for %d of %d admitted jobs", rep, total, len(admitted))
	}
	// The slow runner hands back a best-so-far at the cut, so in-flight
	// jobs must surface as partial — the drain preserved their work.
	if rep.Partial == 0 {
		t.Fatalf("report %+v: no job kept its best-so-far through the truncated drain", rep)
	}
}

// TestPropertyDegenerateRetryDeterministic: the Degenerate runner counts
// attempts off the documented reseed schedule, so a fault depth below the
// retry budget always heals at the same attempt, and one equal to it always
// exhausts — no flakes in either direction.
func TestPropertyDegenerateRetryDeterministic(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		heal := jobs.New(jobs.Config{Workers: 1,
			Runners: map[string]jobs.Runner{"degen": chaos.Degenerate(robust.RetryBudget - 1)}})
		j, _, err := heal.Submit(jobs.Spec{Algo: "degen", Points: points(), Seed: int64(trial * 10)})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		<-j.Done()
		if j.State() != jobs.StateDone {
			t.Fatalf("trial %d: depth budget-1: state %s, want done", trial, j.State())
		}
		if st := j.Status(); st.Attempts != robust.RetryBudget {
			t.Fatalf("trial %d: attempts = %d, want %d (all but the last degenerate)", trial, st.Attempts, robust.RetryBudget)
		}
		drainOrDie(t, heal, 5*time.Second)

		exhaust := jobs.New(jobs.Config{Workers: 1,
			Runners: map[string]jobs.Runner{"degen": chaos.Degenerate(robust.RetryBudget)}})
		j2, _, err := exhaust.Submit(jobs.Spec{Algo: "degen", Points: points(), Seed: int64(trial * 10)})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		<-j2.Done()
		if j2.State() != jobs.StateFailed || !errors.Is(j2.Err(), core.ErrDegenerate) {
			t.Fatalf("trial %d: depth = budget: state %s err %v, want failed/ErrDegenerate",
				trial, j2.State(), j2.Err())
		}
		drainOrDie(t, exhaust, 5*time.Second)
	}
}

// TestPropertyFlakyVerdictReplayable: the Flaky runner's pass/fail verdict
// is a pure function of the job seed, so the same battery submitted to two
// engines produces identical terminal states job for job.
func TestPropertyFlakyVerdictReplayable(t *testing.T) {
	run := func() map[int64]jobs.State {
		e := jobs.New(jobs.Config{Workers: 2, QueueSize: 64,
			Runners: map[string]jobs.Runner{"flaky": chaos.Flaky(0.5)}})
		defer drainOrDie(t, e, 10*time.Second)
		out := map[int64]jobs.State{}
		var js []*jobs.Job
		for seed := int64(0); seed < 20; seed++ {
			j, _, err := e.Submit(jobs.Spec{Algo: "flaky", Points: points(), Seed: seed})
			if err != nil {
				t.Fatalf("Submit seed %d: %v", seed, err)
			}
			js = append(js, j)
		}
		for _, j := range js {
			<-j.Done()
			out[j.Spec.Seed] = j.State()
		}
		return out
	}
	first, second := run(), run()
	var failed, done int
	for seed, st := range first {
		if second[seed] != st {
			t.Fatalf("seed %d: verdict %s vs %s across engines — chaos is not replayable", seed, st, second[seed])
		}
		switch st {
		case jobs.StateFailed:
			failed++
		case jobs.StateDone:
			done++
		}
	}
	if failed == 0 || done == 0 {
		t.Fatalf("flaky battery produced failed=%d done=%d; p=0.5 over 20 seeds should mix", failed, done)
	}
}

// TestTestRunnersBattery sanity-checks the named registry the CLI mounts
// under MULTICLUST_JOBS_TESTRUNNERS=1.
func TestTestRunnersBattery(t *testing.T) {
	reg := chaos.TestRunners()
	for _, name := range []string{"chaos-instant", "chaos-panic", "chaos-degenerate", "chaos-slow", "chaos-flaky"} {
		if reg[name] == nil {
			t.Fatalf("TestRunners missing %q", name)
		}
	}
	// The instant runner is the dispatch-overhead probe: label per point.
	out, err := reg["chaos-instant"](context.Background(), jobs.Spec{Points: points()}, 0)
	if err != nil || len(out.Labels) != len(points()) {
		t.Fatalf("chaos-instant: out=%+v err=%v", out, err)
	}
	// The degenerate runner follows the engine's seed schedule.
	spec := jobs.Spec{Points: points(), Seed: 50}
	if _, err := reg["chaos-degenerate"](context.Background(), spec, 50); !errors.Is(err, core.ErrDegenerate) {
		t.Fatalf("attempt 0 err = %v, want ErrDegenerate", err)
	}
	if out, err := reg["chaos-degenerate"](context.Background(), spec, 52); err != nil || out == nil {
		t.Fatalf("attempt 2: out=%v err=%v, want healed", out, err)
	}
}
