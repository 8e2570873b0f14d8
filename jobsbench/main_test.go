package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// runShort runs one short benchmark in-process and returns its run record
// and report.
func runShort(t *testing.T, w string, seed int64, trace int) (record, report) {
	t.Helper()
	var out, errOut bytes.Buffer
	opt := options{seed: seed, seconds: time.Second, minJobs: 4, spansDir: t.TempDir()}
	opt.w, _ = findWorkload(w)
	if trace == 1 {
		opt.tr = newTracer()
	}
	if code := execute(context.Background(), opt, &out, &errOut); code != 0 {
		t.Fatalf("%s seed %d trace %d: exit %d\n%s", w, seed, trace, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("want a record line and a report line, got %q", out.String())
	}
	var rec map[string]record
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatal(err)
	}
	return rec["record"], rep
}

// benchmarkSpec reads the metric names BENCHMARK.json promises.
func benchmarkSpec(t *testing.T) (workloads, endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return workloads, endToEnd, perLayer
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	names, _, _ := benchmarkSpec(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %v, the benchmark runs %d workloads", names, len(workloads))
	}
	for _, n := range names {
		if _, ok := findWorkload(n); !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not run", n)
		}
	}
}

// A round of the timed phase ends on a whole pass over the inputs.
func TestRoundsAreWholePasses(t *testing.T) {
	for _, w := range workloads {
		if w.roundJobs%w.datasets != 0 {
			t.Errorf("%s: roundJobs %d is not a multiple of %d inputs", w.name, w.roundJobs, w.datasets)
		}
	}
}

// A short untraced run of every workload reports every end-to-end metric
// and ok_share = 1.
func TestShortRunsAreCorrect(t *testing.T) {
	_, endToEnd, _ := benchmarkSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rec, rep := runShort(t, w.name, 1, 0)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 4 {
				t.Fatalf("report %+v", rep)
			}
			if got := rep.Metrics["ok_share"].Value; got != 1 {
				t.Fatalf("ok_share = %v, want 1", got)
			}
			for _, name := range endToEnd {
				m, ok := rep.Metrics[name]
				if !ok || m.Unit == "" || m.Value <= 0 {
					t.Errorf("metric %s = %+v", name, m)
				}
			}
			if rec.Seed != 1 || rec.BodySHA256 == "" || rec.GoMaxProcs != procs ||
				rec.EngineWorkers != engineWorkers || rec.FacadeWorkers != facadeWorkers ||
				rec.NProc < procs || rec.GoVersion == "" {
				t.Errorf("run record %+v", rec)
			}
		})
	}
}

// The references at the default seed match golden.json, and a changed
// reference no longer passes the check.
func TestGoldenHashesMatchReferences(t *testing.T) {
	g, err := goldenHashes()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		ins, err := generate(w, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		if err := reference(context.Background(), w, ins); err != nil {
			t.Fatal(err)
		}
		if len(g[w.name]) != len(ins) {
			t.Fatalf("%s: golden.json has %d hashes for %d inputs", w.name, len(g[w.name]), len(ins))
		}
		ok, err := checkGolden(w, defaultSeed, ins)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ins {
			if !ok[i] {
				t.Errorf("%s input %d: reference hash %s, golden.json has %s", w.name, i, ins[i].hash, g[w.name][i])
			}
		}
		ins[0].hash = "0" + ins[0].hash[1:]
		if ok, _ := checkGolden(w, defaultSeed, ins); ok[0] {
			t.Errorf("%s: a changed reference still passes the golden check", w.name)
		}
	}
}

// Another seed gives other request bodies; the same seed the same ones.
func TestSeedChangesBodies(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(w, 2)
		if err != nil {
			t.Fatal(err)
		}
		if bodyHash(a) != bodyHash(b) {
			t.Errorf("%s: the same seed gave different bodies", w.name)
		}
		if bodyHash(a) == bodyHash(c) {
			t.Errorf("%s: seeds 1 and 2 gave the same bodies", w.name)
		}
	}
}

// layerNotRun names, per workload, the per-layer metrics whose layer the
// workload does not run; a traced run reports them as 0.
var layerNotRun = map[string][]string{
	"kmeans-20k": {"jobs.patch_us", "jobs.append_us", "stream.push_ms", "stream.snapshot_us"},
	"meta-1k":    {"jobs.patch_us", "jobs.append_us", "stream.push_ms", "stream.snapshot_us"},
	"tiny-2c":    {"jobs.patch_us", "jobs.append_us", "stream.push_ms", "stream.snapshot_us"},
}

// Two traced runs at one seed report every per-layer metric, and their
// counts repeat exactly.
func TestTracedRunsRepeatCounts(t *testing.T) {
	_, _, perLayer := benchmarkSpec(t)
	exact := []string{"wire.bytes_in_per_job", "wire.bytes_out_per_job", "jobs.trace_bytes_per_job",
		"parallel.tasks_per_job", "parallel.dispatches_per_job", "kmeans.distance_computations_per_job",
		"jobs.attempts_per_job"}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			_, a := runShort(t, w.name, 3, 1)
			_, b := runShort(t, w.name, 3, 1)
			if !a.Correct || !b.Correct {
				t.Fatalf("traced runs not correct: %+v / %+v", a, b)
			}
			notRun := map[string]bool{}
			for _, n := range layerNotRun[w.name] {
				notRun[n] = true
			}
			for _, name := range perLayer {
				m, ok := a.Metrics[name]
				switch {
				case !ok || m.Unit == "":
					t.Errorf("per-layer metric %s missing", name)
				case notRun[name] && m.Value != 0:
					t.Errorf("%s = %v on a workload that does not run its layer", name, m.Value)
				case !notRun[name] && name != "obs.tracing_overhead_ms" && m.Value <= 0:
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
			for _, name := range exact {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s: %v then %v at the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			if got := a.Metrics["jobs.attempts_per_job"].Value; got != 1 {
				t.Errorf("jobs.attempts_per_job = %v, want 1", got)
			}
		})
	}
}
