package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/metrics"

	"multiclust"
)

// probeStats are the per-input means of the sequential probe pass of a
// traced run. Every count here repeats exactly for a given seed: the pass
// runs one job at a time with nothing else in flight.
type probeStats struct {
	bytesIn, bytesOut float64
	traceBytes        float64
	attemptsRatio     float64
	dispatches, tasks float64
	distances         float64
	fitAllocKB        float64
	checked, failed   int
	firstErr          error
}

// probe walks every input once, in order. For each it
//   - submits the pre-decoded spec with Engine.SubmitTraced (and, for a
//     stream, appends the chunks with Engine.Append), timing admission;
//   - runs the job over HTTP through the traced stack and reads the
//     process collector's parallel.* counters around it, the job's own
//     metrics and its /trace document;
//   - runs the same fit through the facade, timing it and counting the
//     bytes it allocates.
func probe(ctx context.Context, b *bench) probeStats {
	var ps probeStats
	c := newClient(b.svc)
	c.tr = b.tr
	defer c.close()
	fail := func(err error) {
		ps.failed++
		if ps.firstErr == nil {
			ps.firstErr = err
		}
	}
	for i, in := range b.ins {
		ps.checked += 2
		if err := b.direct(in, i); err != nil {
			fail(err)
		}

		d0, t0 := b.col.Counter("parallel.dispatches"), b.col.Counter("parallel.tasks")
		o := c.runJob(b.w, in, b.wantOK[i])
		ps.dispatches += float64(b.col.Counter("parallel.dispatches") - d0)
		ps.tasks += float64(b.col.Counter("parallel.tasks") - t0)
		if !o.ok {
			fail(fmt.Errorf("probe job %s on input %d: err=%v", o.id, i, o.err))
			continue
		}
		ps.bytesIn += float64(len(in.body))
		for _, b := range in.chunkBodies {
			ps.bytesIn += float64(len(b))
		}
		ps.bytesOut += float64(o.resultBytes)
		ps.distances += float64(o.doc.Metrics["kmeans.distance_computations"])
		ps.attemptsRatio += float64(o.doc.Attempts) / float64(max(1, len(in.chunkBodies)))
		tb, err := traceBytes(c, o.id)
		if err != nil {
			fail(err)
			continue
		}
		mb, err := json.Marshal(o.doc.Metrics)
		if err != nil {
			fail(err)
			continue
		}
		ps.traceBytes += float64(tb + len(mb))

		a0 := heapAllocs()
		if err := b.facadeFit(ctx, in); err != nil {
			fail(err)
		}
		ps.fitAllocKB += float64(heapAllocs()-a0) / 1024
	}
	n := float64(len(b.ins))
	for _, v := range []*float64{&ps.bytesIn, &ps.bytesOut, &ps.traceBytes, &ps.attemptsRatio,
		&ps.dispatches, &ps.tasks, &ps.distances, &ps.fitAllocKB} {
		*v /= n
	}
	return ps
}

// direct runs the input's job through the engine's Go API with the spec
// already decoded, and checks its result like an HTTP job's.
func (b *bench) direct(in *input, i int) error {
	_, end := b.tr.begin("engine.SubmitTraced", 0, 0)
	j, _, err := b.svc.eng.SubmitTraced(in.spec, fmt.Sprintf("%032x", i+1))
	end()
	if err != nil {
		return fmt.Errorf("SubmitTraced: %w", err)
	}
	for c, rows := range in.chunks {
		_, end := b.tr.begin("engine.Append", 0, 0)
		_, err := b.svc.eng.Append(j.ID, rows, false)
		end()
		if err != nil {
			return fmt.Errorf("Append chunk %d: %w", c, err)
		}
	}
	if b.w.stream() {
		_, end := b.tr.begin("engine.Append", 0, 0)
		_, err := b.svc.eng.Append(j.ID, nil, true)
		end()
		if err != nil {
			return fmt.Errorf("Append final: %w", err)
		}
	}
	<-j.Done()
	out := j.Result()
	if out == nil {
		return fmt.Errorf("direct job %s on input %d: %v", j.ID, i, j.Err())
	}
	var labels any = out.Labels
	if b.w.algo == "meta" {
		labels = out.Solutions
	}
	got, err := json.Marshal(labels)
	if err != nil {
		return err
	}
	if string(got) != string(in.want) || !b.wantOK[i] {
		return fmt.Errorf("direct job %s on input %d: result differs from the reference", j.ID, i)
	}
	return nil
}

// facadeFit repeats the input's fit through the facade, in spans named
// after the facade calls.
func (b *bench) facadeFit(ctx context.Context, in *input) error {
	w := b.w
	switch {
	case w.stream():
		id, end := b.tr.begin("facade.StreamKMeans", 0, 0)
		defer end()
		mb, err := multiclust.NewStreamKMeans(multiclust.StreamKMeansConfig{K: w.k, Seed: in.seed})
		if err != nil {
			return err
		}
		for _, c := range in.chunks {
			_, endPush := b.tr.begin("facade.StreamKMeans.Push", id, id)
			err := mb.PushContext(ctx, c)
			endPush()
			if err != nil {
				return err
			}
		}
		_, endSnap := b.tr.begin("facade.StreamKMeans.Snapshot", id, id)
		defer endSnap()
		_, err = mb.SnapshotContext(ctx)
		return err
	case w.algo == "meta":
		_, end := b.tr.begin("facade.MetaClusteringContext", 0, 0)
		defer end()
		_, err := multiclust.MetaClusteringContext(ctx, in.points, multiclust.MetaClusteringConfig{K: w.k, Seed: in.seed})
		return err
	default:
		_, end := b.tr.begin("facade.KMeansContext", 0, 0)
		defer end()
		_, err := multiclust.KMeansContext(ctx, in.points, multiclust.KMeansConfig{K: w.k, Seed: in.seed})
		return err
	}
}

// traceBytes fetches the job's /trace document and returns its size with
// every timing and span-id field zeroed, so the figure counts what the
// per-job trace holds, not how many digits its clock readings took.
func traceBytes(c *client, id string) (int, error) {
	status, err := c.call("client.GET.trace", http.MethodGet, "/v1/jobs/"+id+"/trace", nil, spanRef{})
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("GET %s/trace: status %d", id, status)
	}
	var doc map[string]any
	if err := json.Unmarshal(c.buf.Bytes(), &doc); err != nil {
		return 0, fmt.Errorf("GET %s/trace: %w", id, err)
	}
	events, _ := doc["traceEvents"].([]any)
	for _, e := range events {
		ev, _ := e.(map[string]any)
		ev["ts"], ev["dur"], ev["tid"] = 0, 0, 0
		if args, ok := ev["args"].(map[string]any); ok {
			args["id"], args["parent"] = 0, 0
		}
	}
	norm, err := json.Marshal(doc)
	return len(norm), err
}

// Process-wide runtime readings.
var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
	"/gc/cycles/total:gc-cycles",
}

type procReading struct {
	allocs, live, gcs uint64
	cpuNs             int64
}

func readProc() procReading {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	r := procReading{cpuNs: cpuTime()}
	for i, p := range []*uint64{&r.allocs, &r.live, &r.gcs} {
		if s[i].Value.Kind() == metrics.KindUint64 {
			*p = s[i].Value.Uint64()
		}
	}
	return r
}

func heapAllocs() uint64 { return readProc().allocs }
