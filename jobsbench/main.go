// Command jobsbench is the request-level benchmark of multiclust's /v1/jobs
// service. It starts the service in-process on loopback, wired as
// `multiclust -serve` wires it, and drives one workload closed-loop from
// the same process: every client sends its next job only after the
// previous result has arrived. It checks every result byte for byte
// against a facade reference and prints one JSON object of metrics as its
// last line of output.
//
//	jobsbench --workload kmeans-20k --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with spans around every layer boundary and reports the
// per-layer breakdown. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"multiclust"
	"multiclust/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Run-shape constants.
const (
	// A run sets up at least minSetups times and until setupBudget has
	// passed; setup_s is the median set-up.
	minSetups   = 3
	setupBudget = 2 * time.Second
	minJobs     = 100 // timed jobs per run at least, so ten lie beyond p90
	warmJobs    = 2   // warm-up jobs per client on every fresh service
	tracedPairs = 4   // untraced/traced slice pairs in a traced run
	// capSlack bounds how far a phase may overrun its --seconds while it
	// waits for minJobs.
	capSlack = 40 * time.Second
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// problems joins every failed check; it is printed to stderr.
	problems error
}

// record identifies what a run measured; it is printed before the report.
type record struct {
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	Seconds       int    `json:"seconds"`
	Trace         int    `json:"trace"`
	BodySHA256    string `json:"body_sha256"`
	GoMaxProcs    int    `json:"gomaxprocs"`
	EngineWorkers int    `json:"engine_workers"`
	FacadeWorkers int    `json:"facade_workers"`
	QueueSize     int    `json:"queue_size"`
	Clients       int    `json:"clients"`
	NProc         int    `json:"nproc"`
	GoVersion     string `json:"go_version"`
	MaxRSSKB      int64  `json:"max_rss_kb"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jobsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: kmeans-20k, meta-1k, tiny-2c or stream-1k")
	seed := fs.Int64("seed", defaultSeed, "workload seed; every input is generated from it")
	seconds := fs.Int("seconds", 20, "how long the timed phase measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	golden := fs.Bool("write-golden", false, "print golden.json (reference label hashes at the default seed) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	if *golden {
		b, err := writeGolden(ctx)
		if err != nil {
			fmt.Fprintln(stderr, "jobsbench:", err)
			return 1
		}
		_, _ = stdout.Write(b)
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "jobsbench: need --workload (kmeans-20k, meta-1k, tiny-2c, stream-1k), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if n := runtime.NumCPU(); n < procs {
		fmt.Fprintf(stderr, "jobsbench: refusing to run on %d CPU(s); the service is sized for %d\n", n, procs)
		return 2
	}
	opt := options{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, minJobs: minJobs, spansDir: spansDir}
	if *trace == 1 {
		opt.tr = newTracer()
	}
	return execute(ctx, opt, stdout, stderr)
}

// execute runs one benchmark, prints the run record and the report, and
// returns the exit code.
func execute(ctx context.Context, opt options, stdout, stderr io.Writer) int {
	var (
		rep report
		rec record
		err error
	)
	if opt.tr != nil {
		rep, rec, err = runTraced(ctx, opt)
		if err == nil {
			err = opt.tr.write(filepath.Join(opt.spansDir, fmt.Sprintf("%s-seed%d.jsonl", opt.w.name, opt.seed)))
		}
	} else {
		rep, rec, err = runUntraced(ctx, opt)
	}
	if err != nil {
		fmt.Fprintln(stderr, "jobsbench:", err)
		return 1
	}
	if rep.problems != nil {
		fmt.Fprintln(stderr, "jobsbench:", rep.problems)
	}
	rec.Seconds, rec.MaxRSSKB = int(opt.seconds/time.Second), rusage().Maxrss
	if opt.tr != nil {
		rec.Trace = 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]record{"record": rec}); err != nil {
		return 1
	}
	if err := enc.Encode(rep); err != nil {
		return 1
	}
	if !rep.Correct {
		fmt.Fprintln(stderr, "jobsbench: results differ from the reference; see the errors above")
		return 1
	}
	return 0
}

type options struct {
	w        workload
	seed     int64
	seconds  time.Duration
	minJobs  int     // timed jobs to complete at least, even past seconds
	tr       *tracer // nil for an untraced run
	spansDir string  // where a traced run writes its spans
}

// spansDir is where a traced run writes its spans by default.
const spansDir = ".bench_build/spans"

// bench is one set-up: inputs, references and a warmed-up service.
type bench struct {
	w      workload
	ins    []*input
	wantOK []bool // per input: reference agrees with golden.json
	col    *multiclust.Collector
	svc    *service
	tr     *tracer
	warm   phase
}

// process installs the process-wide state `multiclust -serve` installs and
// returns the function that removes it.
func process() (*multiclust.Collector, func()) {
	runtime.GOMAXPROCS(procs)
	multiclust.SetWorkers(facadeWorkers)
	col := multiclust.NewCollector()
	multiclust.SetRecorder(col)
	poller := multiclust.StartRuntimePoller(col, 5*time.Second)
	return col, func() {
		poller.Stop()
		multiclust.SetRecorder(nil)
		multiclust.SetWorkers(0)
	}
}

// setUp generates the inputs, computes their references, starts the
// service and warms it up. It runs at least minSetups times and until
// setupBudget has passed, each time after the previous set-up is stopped
// and dropped and the heap collected; setup_s is the median.
func setUp(ctx context.Context, opt options, col *multiclust.Collector) (*bench, record, float64, error) {
	var times []float64
	var b *bench
	for first := time.Now(); len(times) < minSetups || time.Since(first) < setupBudget; {
		if b != nil {
			if err := b.svc.stop(); err != nil {
				return nil, record{}, 0, err
			}
			b = nil
		}
		forceGC() // start from a heap as empty as a fresh process's
		start := time.Now()
		ins, err := generate(opt.w, opt.seed)
		if err != nil {
			return nil, record{}, 0, err
		}
		if err := reference(ctx, opt.w, ins); err != nil {
			return nil, record{}, 0, fmt.Errorf("reference: %w", err)
		}
		wantOK, err := checkGolden(opt.w, opt.seed, ins)
		if err != nil {
			return nil, record{}, 0, err
		}
		b = &bench{w: opt.w, ins: ins, wantOK: wantOK, col: col, tr: opt.tr}
		if err := b.restart(); err != nil {
			return nil, record{}, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	rec := record{
		Workload: opt.w.name, Seed: opt.seed, BodySHA256: bodyHash(b.ins),
		GoMaxProcs: runtime.GOMAXPROCS(0), EngineWorkers: engineWorkers, FacadeWorkers: facadeWorkers,
		QueueSize: queueSize, Clients: opt.w.clients, NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
	return b, rec, median(times), nil
}

// restart replaces the bench's service with a fresh one and warms it up
// with warmJobs jobs per client, checked like timed ones.
func (b *bench) restart() error {
	if b.svc != nil {
		if err := b.svc.stop(); err != nil {
			return err
		}
	}
	svc, err := startService(b.col, b.tr)
	if err != nil {
		return err
	}
	b.svc = svc
	b.warm.add(closedLoop(svc, b.w, b.ins, b.wantOK, nil, warmJobs*b.w.clients, nil))
	return nil
}

// timed is a measured closed-loop phase with the process readings summed
// over its rounds.
type timed struct {
	phase
	cpuNs, allocs, gcs int64
	retained           int64 // live heap after the rounds minus before, summed
}

// merge folds another measured phase into t.
func (t *timed) merge(u timed) {
	t.add(u.phase)
	t.cpuNs += u.cpuNs
	t.allocs += u.allocs
	t.gcs += u.gcs
	t.retained += u.retained
}

// measure runs the closed loop until d has passed and jobs jobs have
// completed, or until d+capSlack, then up to the end of a whole pass over
// the inputs. The service keeps every job it ran, so the loop runs in
// rounds of at most w.roundJobs jobs (whole passes too), each after the
// first on a fresh, warmed-up service. Each round's readings are taken
// between forced collections.
func measure(b *bench, tr *tracer, d time.Duration, jobs int) (timed, error) {
	var t timed
	for round := 0; (t.wall < d || t.attempted < jobs) && t.wall < d+capSlack; round++ {
		if round > 0 {
			if err := b.restart(); err != nil {
				return t, err
			}
		}
		wall, attempted := t.wall, t.attempted
		stop := func(el time.Duration, n int) bool {
			return (wall+el >= d && attempted+n >= jobs) || wall+el >= d+capSlack
		}
		forceGC()
		before := readProc()
		p := closedLoop(b.svc, b.w, b.ins, b.wantOK, tr, b.w.roundJobs, stop)
		after := readProc()
		forceGC()
		t.merge(timed{phase: p, cpuNs: after.cpuNs - before.cpuNs, allocs: int64(after.allocs - before.allocs),
			gcs: int64(after.gcs - before.gcs), retained: int64(readProc().live) - int64(before.live)})
	}
	return t, nil
}

func runUntraced(ctx context.Context, opt options) (report, record, error) {
	col, done := process()
	defer done()
	b, rec, setupS, err := setUp(ctx, opt, col)
	if err != nil {
		return report{}, rec, err
	}
	t, err := measure(b, nil, opt.seconds, opt.minJobs)
	if err == nil {
		err = b.svc.stop()
	}
	if err != nil {
		return report{}, rec, err
	}
	jobs := float64(max(1, t.attempted))
	m := map[string]metric{
		"latency_p50_ms":           {t.percentile(0.5), "ms"},
		"latency_p90_ms":           {t.percentile(0.9), "ms"},
		"jobs_per_s":               {float64(t.attempted) / t.wall.Seconds(), "1/s"},
		"ok_share":                 {float64(t.ok) / jobs, "ratio"},
		"cpu_ms_per_job":           {float64(t.cpuNs) / 1e6 / jobs, "ms"},
		"alloc_kb_per_job":         {float64(t.allocs) / 1024 / jobs, "KiB"},
		"heap_retained_kb_per_job": {float64(t.retained) / 1024 / jobs, "KiB"},
		"setup_s":                  {setupS, "s"},
	}
	return finish(b, t.phase, nil, m), rec, nil
}

// finish folds the warm-up, timed and probe checks into the report.
func finish(b *bench, t phase, extra *probeStats, m map[string]metric) report {
	rep := report{
		Attempted: b.warm.attempted + t.attempted,
		Failed:    (b.warm.attempted - b.warm.ok) + (t.attempted - t.ok),
		Metrics:   m,
	}
	errs := []error{b.warm.firstErr, t.firstErr}
	if extra != nil {
		rep.Attempted += extra.checked
		rep.Failed += extra.failed
		errs = append(errs, extra.firstErr)
	}
	for i, ok := range b.wantOK {
		if !ok {
			errs = append(errs, fmt.Errorf("input %d: reference labels differ from golden.json (hash %s)", i, b.ins[i].hash))
		}
	}
	rep.problems = errors.Join(errs...)
	rep.Correct = rep.Failed == 0 && t.attempted > 0 && rep.problems == nil
	return rep
}

// runTraced runs a sequential probe pass, then alternates untraced and
// traced slices of the closed loop, each on a fresh service, so slow
// drifts of the host cancel out of obs.tracing_overhead_ms. The untraced slices supply the program's own
// counters (queue wait, execution time, GC cycles); the probe pass
// supplies the exact counts; the traced slices record spans at every
// layer boundary.
func runTraced(ctx context.Context, opt options) (report, record, error) {
	col, done := process()
	defer done()
	b, rec, _, err := setUp(ctx, opt, col)
	if err != nil {
		return report{}, rec, err
	}
	// The probe runs on a fresh service that has seen no job, so the job
	// ids, and with them the response bytes, repeat exactly for a seed.
	if err := b.svc.stop(); err != nil {
		return report{}, rec, err
	}
	if b.svc, err = startService(col, opt.tr); err != nil {
		return report{}, rec, err
	}
	opt.tr.on.Store(true)
	ps := probe(ctx, b)
	opt.tr.on.Store(false)

	slice := opt.seconds / (2 * tracedPairs)
	jobs := max(1, opt.minJobs/(2*tracedPairs))
	var a, c timed // untraced and traced slices
	// The engine's own histograms, summed over the untraced slices: queue
	// wait, batch execution and stream chunk pushes.
	hists := []string{"jobs.queue_wait_seconds", "jobs.exec_seconds", "jobs.chunk_push_seconds"}
	sums := make([]obs.HistStat, len(hists))
	for i := 0; i < 2*tracedPairs; i++ {
		if err := b.restart(); err != nil {
			return report{}, rec, err
		}
		if i%2 == 1 {
			opt.tr.on.Store(true)
			t, err := measure(b, opt.tr, slice, jobs)
			opt.tr.on.Store(false)
			if err != nil {
				return report{}, rec, err
			}
			c.merge(t)
			continue
		}
		before := make([]obs.HistStat, len(hists))
		for k, name := range hists {
			before[k], _ = col.HistValue(name)
		}
		t, err := measure(b, nil, slice, jobs)
		if err != nil {
			return report{}, rec, err
		}
		for k, name := range hists {
			h, _ := col.HistValue(name)
			sums[k].Count += h.Count - before[k].Count
			sums[k].SumNs += h.SumNs - before[k].SumNs
		}
		a.merge(t)
	}
	if err := b.svc.stop(); err != nil {
		return report{}, rec, err
	}

	st := opt.tr.stats()
	us := func(name string) float64 { return st[name].meanNs / 1e3 }
	meanMS := func(h obs.HistStat) float64 {
		if h.Count == 0 {
			return 0
		}
		return float64(h.SumNs) / 1e6 / float64(h.Count)
	}
	decode := us("jobs.POST") - us("engine.SubmitTraced")
	fit := us("facade.KMeansContext") / 1e3
	exec := meanMS(sums[1])
	switch {
	case opt.w.stream():
		decode = us("jobs.PATCH") - us("engine.Append")
		fit = us("facade.StreamKMeans") / 1e3
		// A stream job's worker runs are its chunk pushes.
		exec = meanMS(sums[2]) * float64(opt.w.chunks)
	case opt.w.algo == "meta":
		fit = us("facade.MetaClusteringContext") / 1e3
	}
	m := map[string]metric{
		"ops.instrument_self_us":               {st["ops.instrument"].selfNs / 1e3, "us"},
		"jobs.post_us":                         {us("jobs.POST"), "us"},
		"jobs.decode_us":                       {decode, "us"},
		"jobs.get_us":                          {us("jobs.GET"), "us"},
		"jobs.patch_us":                        {us("jobs.PATCH"), "us"},
		"jobs.admit_us":                        {us("engine.SubmitTraced"), "us"},
		"jobs.append_us":                       {us("engine.Append"), "us"},
		"jobs.queue_wait_ms":                   {meanMS(sums[0]), "ms"},
		"jobs.exec_ms":                         {exec, "ms"},
		"jobs.attempts_per_job":                {ps.attemptsRatio, "ratio"},
		"jobs.trace_bytes_per_job":             {ps.traceBytes, "B"},
		"wire.bytes_in_per_job":                {ps.bytesIn, "B"},
		"wire.bytes_out_per_job":               {ps.bytesOut, "B"},
		"fit_ms":                               {fit, "ms"},
		"fit.alloc_kb":                         {ps.fitAllocKB, "KiB"},
		"kmeans.distance_computations_per_job": {ps.distances, "count"},
		"parallel.dispatches_per_job":          {ps.dispatches, "count"},
		"parallel.tasks_per_job":               {ps.tasks, "count"},
		"stream.push_ms":                       {us("facade.StreamKMeans.Push") / 1e3, "ms"},
		"stream.snapshot_us":                   {us("facade.StreamKMeans.Snapshot"), "us"},
		"gc.cycles_per_job":                    {float64(a.gcs) / float64(max(1, a.attempted)), "count"},
		"obs.tracing_overhead_ms":              {c.percentile(0.5) - a.percentile(0.5), "ms"},
	}
	a.add(c.phase)
	return finish(b, a.phase, &ps, m), rec, nil
}

// forceGC collects twice, so objects freed from sync.Pool victim caches
// are gone too.
func forceGC() {
	runtime.GC()
	runtime.GC()
}

// rusage reads the process's resource usage; on error every field reads 0.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user+system CPU time in nanoseconds.
func cpuTime() int64 {
	ru := rusage()
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
