package jobs

import (
	"context"
	"errors"

	"multiclust"
)

// Runner executes one attempt of a job: the spec's dataset under the
// spec's algorithm, with the attempt's seed (the engine walks the
// deterministic schedule spec.Seed, spec.Seed+1, ... on degenerate fits,
// so `seed - spec.Seed` is the attempt index). The context carries the
// deadline, the drain signal and the per-job recorder (obs.From); a
// runner that is interrupted should return its best-so-far Outcome
// alongside an error wrapping core.ErrInterrupted — that pair is what the
// engine serves as a partial result. Runners are invoked under
// robust.RecoverTo, so a panic fails the job without taking the worker
// down.
type Runner func(ctx context.Context, spec Spec, seed int64) (*Outcome, error)

// defaultRunners dispatches the service's algorithm names onto the facade
// ...Context variants, inheriting their whole robustness envelope:
// validation gates, panic recovery, degenerate-fit detection, and
// best-so-far on interrupt.
var defaultRunners = map[string]Runner{
	"kmeans":   runKMeans,
	"em":       runEM,
	"spectral": runSpectral,
	"dbscan":   runDBSCAN,
	"meta":     runMeta,
}

// Algorithms lists the service's built-in algorithm names, sorted.
func Algorithms() []string { return sortedNames(defaultRunners) }

// outcomeFromClustering flattens a label vector into the wire shape.
func outcomeFromClustering(c *multiclust.Clustering) *Outcome {
	if c == nil {
		return nil
	}
	return &Outcome{Labels: c.Labels, K: c.K(), Noise: c.NoiseCount()}
}

func runKMeans(ctx context.Context, spec Spec, seed int64) (*Outcome, error) {
	res, err := multiclust.KMeansContext(ctx, spec.Points, multiclust.KMeansConfig{
		K: spec.K, Seed: seed, Restarts: spec.Restarts, MaxIter: spec.MaxIter,
	})
	if res == nil {
		return nil, err
	}
	out := outcomeFromClustering(res.Clustering)
	if out != nil {
		out.Stats = map[string]float64{"sse": res.SSE, "iterations": float64(res.Iterations)}
	}
	return out, err
}

func runEM(ctx context.Context, spec Spec, seed int64) (*Outcome, error) {
	res, err := multiclust.EMContext(ctx, spec.Points, multiclust.EMConfig{
		K: spec.K, Seed: seed, MaxIter: spec.MaxIter,
	})
	if res == nil {
		return nil, err
	}
	out := outcomeFromClustering(res.Clustering)
	if out != nil {
		out.Stats = map[string]float64{"loglik": res.LogLik, "iterations": float64(res.Iterations)}
	}
	return out, err
}

func runSpectral(ctx context.Context, spec Spec, seed int64) (*Outcome, error) {
	res, err := multiclust.SpectralContext(ctx, spec.Points, multiclust.SpectralConfig{
		K: spec.K, Seed: seed,
	})
	if res == nil {
		return nil, err
	}
	out := outcomeFromClustering(res.Clustering)
	if out != nil {
		out.Stats = map[string]float64{"sigma": res.Sigma}
	}
	return out, err
}

func runDBSCAN(ctx context.Context, spec Spec, _ int64) (*Outcome, error) {
	// DBSCAN is deterministic without a seed; the retry schedule cannot
	// change its outcome, and it never reports ErrDegenerate.
	c, err := multiclust.DBSCANContext(ctx, spec.Points, multiclust.DBSCANConfig{
		Eps: spec.Eps, MinPts: spec.MinPts,
	})
	return outcomeFromClustering(c), err
}

func runMeta(ctx context.Context, spec Spec, seed int64) (*Outcome, error) {
	res, err := multiclust.MetaClusteringContext(ctx, spec.Points, multiclust.MetaClusteringConfig{
		K: spec.K, Seed: seed, NumSolutions: spec.NumSolutions, MetaClusters: spec.MetaClusters,
	})
	if res == nil {
		return nil, err
	}
	if len(res.Representatives) == 0 {
		if err == nil {
			err = errors.New("jobs: meta clustering produced no representatives")
		}
		return nil, err
	}
	out := &Outcome{
		Solutions: make([][]int, len(res.Representatives)),
		Stats:     map[string]float64{"mean_pairwise": res.MeanPairwise, "generated": float64(len(res.Generated))},
	}
	for i, c := range res.Representatives {
		out.Solutions[i] = c.Labels
	}
	// The first representative doubles as the flat label surface so
	// single-solution clients need no special casing.
	out.Labels = res.Representatives[0].Labels
	out.K = res.Representatives[0].K()
	out.Noise = res.Representatives[0].NoiseCount()
	return out, err
}
