package jobs

import (
	"context"
	"fmt"

	"multiclust/internal/core"
	"multiclust/internal/stream"
)

// StreamHandle is one live incremental learner behind a streaming job
// (Spec.Stream). The engine serializes calls — at most one PushChunk or
// Snapshot runs at a time per job — so implementations need no internal
// locking. PushChunk folds one chunk in, honoring ctx at chunk
// boundaries with errors wrapping core.ErrInterrupted; Snapshot
// materializes the current state as the flat wire Outcome. Both run
// under robust.RecoverTo, so a panicking handle fails the job without
// taking the worker down.
type StreamHandle interface {
	PushChunk(ctx context.Context, rows [][]float64) error
	Snapshot(ctx context.Context) (*Outcome, error)
}

// StreamFactory builds the handle for one admitted streaming job from
// its spec. Construction errors are admission errors: the engine wraps
// them in ErrBadSpec and refuses the job (HTTP 400).
type StreamFactory func(spec Spec) (StreamHandle, error)

// defaultStreams dispatches the streaming algorithm names onto
// internal/stream's incremental learners. The names deliberately mirror
// the batch registry where a streaming counterpart exists: a client that
// flips "stream": true on a kmeans or meta spec gets the incremental
// version of the same algorithm.
var defaultStreams = map[string]StreamFactory{
	"kmeans": streamKMeans,
	"meta":   streamMeta,
	"coem":   streamCoEM,
}

// StreamAlgorithms lists the service's built-in streaming algorithm
// names, sorted like Algorithms.
func StreamAlgorithms() []string { return sortedNames(defaultStreams) }

// streamKMeans wires Spec onto stream.MiniBatch: K, Seed, Restarts and
// MaxIter mean exactly what they mean for the batch kmeans algorithm
// (they configure the first-chunk batch solve).
func streamKMeans(spec Spec) (StreamHandle, error) {
	mb, err := stream.NewMiniBatch(stream.MiniBatchConfig{
		K: spec.K, Seed: spec.Seed, MaxIter: spec.MaxIter, Restarts: spec.Restarts,
	})
	if err != nil {
		return nil, err
	}
	return miniBatchHandle{mb}, nil
}

type miniBatchHandle struct{ mb *stream.MiniBatch }

func (h miniBatchHandle) PushChunk(ctx context.Context, rows [][]float64) error {
	return h.mb.PushContext(ctx, rows)
}

// Snapshot flattens the mini-batch state: Labels is the assignment of
// the most recent chunk (the wire Outcome has no centroid surface; the
// scalar summary rides in Stats).
func (h miniBatchHandle) Snapshot(ctx context.Context) (*Outcome, error) {
	snap, err := h.mb.SnapshotContext(ctx)
	if snap == nil {
		return nil, err
	}
	return &Outcome{
		Labels: snap.LastLabels,
		K:      len(snap.Centers),
		Stats: map[string]float64{
			"sse":       snap.LastSSE,
			"rows_seen": float64(snap.RowsSeen),
			"chunks":    float64(snap.Chunks),
			"reseeds":   float64(snap.Reseeds),
		},
	}, err
}

// streamMeta wires Spec onto the sliding-window ensemble:
// NumSolutions is the base solutions generated per chunk, MetaClusters
// the groups per snapshot, Window the chunks retained before FIFO
// eviction (0 defers to the stream-layer default).
func streamMeta(spec Spec) (StreamHandle, error) {
	ens, err := stream.NewEnsemble(stream.EnsembleConfig{
		K: spec.K, PerChunk: spec.NumSolutions, MetaClusters: spec.MetaClusters,
		Window: spec.Window, Seed: spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	return ensembleHandle{ens}, nil
}

type ensembleHandle struct{ ens *stream.Ensemble }

func (h ensembleHandle) PushChunk(ctx context.Context, rows [][]float64) error {
	return h.ens.PushContext(ctx, rows)
}

// Snapshot flattens the window grouping like the batch meta runner:
// one label vector per representative, the first doubling as the flat
// Labels surface.
func (h ensembleHandle) Snapshot(ctx context.Context) (*Outcome, error) {
	snap, err := h.ens.SnapshotContext(ctx)
	if snap == nil {
		return nil, err
	}
	if len(snap.Representatives) == 0 {
		return nil, fmt.Errorf("jobs: streaming ensemble produced no representatives: %w", core.ErrDegenerate)
	}
	out := &Outcome{
		Solutions: make([][]int, len(snap.Representatives)),
		Labels:    snap.Representatives[0].Labels,
		K:         snap.Representatives[0].K(),
		Noise:     snap.Representatives[0].NoiseCount(),
		Stats: map[string]float64{
			"mean_pairwise": snap.MeanPairwise,
			"window_chunks": float64(snap.WindowChunks),
			"window_rows":   float64(snap.WindowRows),
			"evicted":       float64(snap.Evicted),
			"rows_seen":     float64(snap.RowsSeen),
		},
	}
	for i, c := range snap.Representatives {
		out.Solutions[i] = c.Labels
	}
	return out, err
}

// streamCoEM wires Spec onto online co-EM. The spec's feature matrix is
// column-split at d/2 into the two views; Seed and MaxIter configure
// the first-chunk batch solve.
func streamCoEM(spec Spec) (StreamHandle, error) {
	co, err := stream.NewCoEM(stream.CoEMConfig{
		K: spec.K, Seed: spec.Seed, MaxIter: spec.MaxIter,
	})
	if err != nil {
		return nil, err
	}
	return coEMHandle{co}, nil
}

type coEMHandle struct{ co *stream.CoEM }

func (h coEMHandle) PushChunk(ctx context.Context, rows [][]float64) error {
	return h.co.PushContext(ctx, rows)
}

// Snapshot serves the consensus clustering of the most recent chunk
// plus the scalar model summary; the models themselves stay in-process.
func (h coEMHandle) Snapshot(ctx context.Context) (*Outcome, error) {
	snap, err := h.co.SnapshotContext(ctx)
	if snap == nil {
		return nil, err
	}
	return &Outcome{
		Labels: snap.Clustering.Labels,
		K:      snap.Clustering.K(),
		Stats: map[string]float64{
			"agreement": snap.Agreement,
			"loglik_a":  snap.LogLikA,
			"loglik_b":  snap.LogLikB,
			"rows_seen": float64(snap.RowsSeen),
			"chunks":    float64(snap.Chunks),
		},
	}, err
}
