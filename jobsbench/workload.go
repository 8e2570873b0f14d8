package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"multiclust"
	"multiclust/serve"
)

// workload is one traffic mix: the job every client sends, its input size
// and how many clients send it closed-loop.
type workload struct {
	name     string
	clients  int
	algo     string // service algorithm name: "kmeans" or "meta"
	k        int
	rows     int // rows per dataset, or per chunk for a stream
	dims     int
	chunks   int // PATCHed chunks per streaming job; 0 for a batch job
	datasets int // distinct inputs per run; clients cycle through them
	// roundJobs, when set, caps the jobs one service instance runs in the
	// timed phase. The service keeps every job it ran, so the cap bounds
	// the retained heap to about 64 MB; the next round starts on a fresh
	// service.
	roundJobs int
}

func (w workload) stream() bool { return w.chunks > 0 }

// The pools are as large as set-up time allows: inputs differ in how many
// iterations their fits take, and p90 latency is set by the slowest tenth
// of them, so a larger pool keeps the figures from moving with the seed.
var workloads = []workload{
	// Wire-bound: decoding the 3 MB body costs far more than the 5 ms fit.
	{name: "kmeans-20k", clients: 1, algo: "kmeans", k: 4, rows: 20000, dims: 8, datasets: 16, roundJobs: 32},
	// The paper's multiple-solutions path; fit-bound, with fan-out over
	// the facade workers. Wire changes should not show here.
	{name: "meta-1k", clients: 1, algo: "meta", k: 4, rows: 1000, dims: 4, datasets: 24},
	// Per-request overhead and queue hand-off between two busy engine
	// workers; the bypass for decode and kernel changes.
	{name: "tiny-2c", clients: 2, algo: "kmeans", k: 3, rows: 64, dims: 2, datasets: 256, roundJobs: 8192},
	// The only path through Engine.Append, the chunk-claim loop and
	// internal/stream: many mid-size writes into one open job.
	{name: "stream-1k", clients: 1, algo: "kmeans", k: 4, rows: 1000, dims: 8, chunks: 16, datasets: 8},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// input is one generated job: the request bodies the service sees, the
// same spec pre-decoded for direct engine calls, and the reference result
// computed through the facade.
type input struct {
	seed   int64         // algorithm seed carried in the spec
	points [][]float64   // batch dataset (nil for a stream)
	chunks [][][]float64 // stream chunks (nil for a batch job)
	spec   serve.Spec    // batch: full spec; stream: the open spec without rows
	body   []byte        // POST body
	// chunkBodies are the PATCH bodies of a stream, the closing
	// {"final":true} last.
	chunkBodies [][]byte
	// want is the reference result's label bytes as the service encodes
	// them: "labels" for kmeans and streams, "solutions" for meta.
	want []byte
	hash string // hex SHA-256 of want
}

// blobs draws rows points from k Gaussian blobs with unit spread whose
// centres lie uniformly in [-10, 10]^dims.
func blobs(rng *rand.Rand, centres [][]float64, rows int) [][]float64 {
	dims := len(centres[0])
	out := make([][]float64, rows)
	for i := range out {
		c := centres[rng.Intn(len(centres))]
		p := make([]float64, dims)
		for j := range p {
			p[j] = c[j] + rng.NormFloat64()
		}
		out[i] = p
	}
	return out
}

// generate builds the run's inputs from the workload seed alone. The same
// seed gives byte-identical bodies; the service receives nothing else.
// Input i always samples the same blob layout, so a run's mix of easy and
// hard layouts does not change with the seed; the seed draws the points
// and the algorithm seeds.
func generate(w workload, seed int64) ([]*input, error) {
	rng := rand.New(rand.NewSource(seed))
	ins := make([]*input, w.datasets)
	for i := range ins {
		layout := rand.New(rand.NewSource(int64(i) + 1))
		centres := make([][]float64, w.k)
		for c := range centres {
			centres[c] = make([]float64, w.dims)
			for j := range centres[c] {
				centres[c][j] = layout.Float64()*20 - 10
			}
		}
		in := &input{seed: seed*1000 + int64(i) + 1}
		in.spec = serve.Spec{Algo: w.algo, K: w.k, Seed: in.seed}
		var err error
		if w.stream() {
			in.spec.Stream = true
			in.chunks = make([][][]float64, w.chunks)
			for c := range in.chunks {
				in.chunks[c] = blobs(rng, centres, w.rows)
				b, err := json.Marshal(struct {
					Points [][]float64 `json:"points"`
				}{in.chunks[c]})
				if err != nil {
					return nil, err
				}
				in.chunkBodies = append(in.chunkBodies, b)
			}
			in.chunkBodies = append(in.chunkBodies, []byte(`{"final":true}`))
		} else {
			in.points = blobs(rng, centres, w.rows)
			in.spec.Points = in.points
		}
		if in.body, err = json.Marshal(in.spec); err != nil {
			return nil, err
		}
		ins[i] = in
	}
	return ins, nil
}

// reference computes every input's expected result through the facade —
// the kmeans or meta fit, or a StreamKMeans replay of the same chunks —
// and encodes its labels exactly as the service does.
func reference(ctx context.Context, w workload, ins []*input) error {
	for _, in := range ins {
		var labels any
		switch {
		case w.stream():
			mb, err := multiclust.NewStreamKMeans(multiclust.StreamKMeansConfig{K: w.k, Seed: in.seed})
			if err != nil {
				return err
			}
			for _, c := range in.chunks {
				if err := mb.PushContext(ctx, c); err != nil {
					return err
				}
			}
			snap, err := mb.SnapshotContext(ctx)
			if err != nil {
				return err
			}
			labels = snap.LastLabels
		case w.algo == "meta":
			res, err := multiclust.MetaClusteringContext(ctx, in.points, multiclust.MetaClusteringConfig{K: w.k, Seed: in.seed})
			if err != nil {
				return err
			}
			sols := make([][]int, len(res.Representatives))
			for i, c := range res.Representatives {
				sols[i] = c.Labels
			}
			labels = sols
		default:
			res, err := multiclust.KMeansContext(ctx, in.points, multiclust.KMeansConfig{K: w.k, Seed: in.seed})
			if err != nil {
				return err
			}
			labels = res.Clustering.Labels
		}
		b, err := json.Marshal(labels)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(b)
		in.want, in.hash = b, hex.EncodeToString(sum[:])
	}
	return nil
}

// bodyHash fingerprints every request body of the run, in send order.
func bodyHash(ins []*input) string {
	h := sha256.New()
	for _, in := range ins {
		h.Write(in.body)
		for _, b := range in.chunkBodies {
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// defaultSeed is the seed whose reference label hashes are committed in
// golden.json.
const defaultSeed = 1

// golden holds the reference label hashes at defaultSeed, one per input,
// so a kernel change that alters labels fails the benchmark even when the
// facade and the service still agree with each other.
//
//go:embed golden.json
var goldenJSON []byte

func goldenHashes() (map[string][]string, error) {
	var g map[string][]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// checkGolden reports, per input, whether its reference agrees with the
// committed hash. Every input passes at any seed other than defaultSeed.
func checkGolden(w workload, seed int64, ins []*input) ([]bool, error) {
	ok := make([]bool, len(ins))
	for i := range ok {
		ok[i] = true
	}
	if seed != defaultSeed {
		return ok, nil
	}
	g, err := goldenHashes()
	if err != nil {
		return nil, err
	}
	want := g[w.name]
	for i, in := range ins {
		ok[i] = i < len(want) && want[i] == in.hash
	}
	return ok, nil
}

// writeGolden recomputes golden.json for every workload at defaultSeed.
func writeGolden(ctx context.Context) ([]byte, error) {
	g := map[string][]string{}
	for _, w := range workloads {
		ins, err := generate(w, defaultSeed)
		if err != nil {
			return nil, err
		}
		if err := reference(ctx, w, ins); err != nil {
			return nil, err
		}
		for _, in := range ins {
			g[w.name] = append(g[w.name], in.hash)
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
