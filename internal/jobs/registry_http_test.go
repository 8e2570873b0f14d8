package jobs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"multiclust"
)

// registryPoints is two separated 4-d blobs with enough spread inside each
// blob for every algorithm (EM variances, the spectral affinity) to fit.
func registryPoints() [][]float64 {
	rows := make([][]float64, 24)
	for i := range rows {
		c := float64(i % 2)
		rows[i] = []float64{
			10*c + 0.1*float64(i%5), 10*c + 0.2*float64(i%3),
			-5*c + 0.15*float64(i%4), -5*c + 2 + 0.05*float64(i%7),
		}
	}
	return rows
}

// registrySpec is the one spec every registry name is run with; each
// algorithm reads only its own knobs.
func registrySpec(algo string, stream bool) Spec {
	return Spec{Algo: algo, Stream: stream, Points: registryPoints(), K: 2, Seed: 7,
		Eps: 2, MinPts: 3, NumSolutions: 3, MetaClusters: 2}
}

// pollTerminal GETs the job until it reports a terminal state.
func pollTerminal(t *testing.T, srv *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body := do(t, srv, http.MethodGet, "/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", id, resp.StatusCode, body)
		}
		var st Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("decode status: %v", err)
		}
		switch st.State {
		case "done", "partial", "failed", "cancelled":
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// submitHTTP POSTs the spec and returns the admitted job id.
func submitHTTP(t *testing.T, srv *httptest.Server, spec Spec) string {
	t.Helper()
	resp, body := postJSON(t, srv, "/v1/jobs", spec, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s = %d: %s", spec.Algo, resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatalf("decode submit: %v", err)
	}
	return sub.ID
}

// facadeResult is what a facade run on a registry spec should serve: the
// flat labels, every solution (ensembles only), and the scalar stats that
// tell the algorithm and its seed apart where the labels alone would not.
type facadeResult struct {
	labels    []int
	solutions [][]int
	stats     map[string]float64
}

// checkServed compares a terminal job status with the facade's result.
func checkServed(t *testing.T, st Status, want facadeResult) {
	t.Helper()
	if st.State != "done" || st.Result == nil {
		t.Fatalf("state %s (error %q), want done with a result", st.State, st.Error)
	}
	if st.Result.K != 2 {
		t.Fatalf("k = %d, want the two blobs", st.Result.K)
	}
	if !reflect.DeepEqual(st.Result.Labels, want.labels) || !reflect.DeepEqual(st.Result.Solutions, want.solutions) {
		t.Fatalf("served labels %v solutions %v, facade %v %v",
			st.Result.Labels, st.Result.Solutions, want.labels, want.solutions)
	}
	for name, v := range want.stats {
		if got, ok := st.Result.Stats[name]; !ok || got != v {
			t.Fatalf("served stat %s = %v (present %v), facade %v", name, got, ok, v)
		}
	}
}

// TestHTTPEveryBatchAlgorithmMatchesFacade submits every Algorithms() name
// through Handler() and checks the served result against the facade run
// on the same spec. A registry name without a facade reference fails the
// test, so a new algorithm cannot skip the service path.
func TestHTTPEveryBatchAlgorithmMatchesFacade(t *testing.T) {
	facade := map[string]func(Spec) (facadeResult, error){
		"kmeans": func(s Spec) (facadeResult, error) {
			r, err := multiclust.KMeans(s.Points, multiclust.KMeansConfig{K: s.K, Seed: s.Seed, Restarts: s.Restarts, MaxIter: s.MaxIter})
			if err != nil {
				return facadeResult{}, err
			}
			return facadeResult{labels: r.Clustering.Labels, stats: map[string]float64{"sse": r.SSE}}, nil
		},
		"em": func(s Spec) (facadeResult, error) {
			r, err := multiclust.EM(s.Points, multiclust.EMConfig{K: s.K, Seed: s.Seed, MaxIter: s.MaxIter})
			if err != nil {
				return facadeResult{}, err
			}
			return facadeResult{labels: r.Clustering.Labels, stats: map[string]float64{"loglik": r.LogLik}}, nil
		},
		"spectral": func(s Spec) (facadeResult, error) {
			r, err := multiclust.Spectral(s.Points, multiclust.SpectralConfig{K: s.K, Seed: s.Seed})
			if err != nil {
				return facadeResult{}, err
			}
			return facadeResult{labels: r.Clustering.Labels, stats: map[string]float64{"sigma": r.Sigma}}, nil
		},
		"dbscan": func(s Spec) (facadeResult, error) {
			c, err := multiclust.DBSCAN(s.Points, multiclust.DBSCANConfig{Eps: s.Eps, MinPts: s.MinPts})
			if err != nil {
				return facadeResult{}, err
			}
			return facadeResult{labels: c.Labels}, nil
		},
		"meta": func(s Spec) (facadeResult, error) {
			r, err := multiclust.MetaClustering(s.Points, multiclust.MetaClusteringConfig{
				K: s.K, Seed: s.Seed, NumSolutions: s.NumSolutions, MetaClusters: s.MetaClusters})
			if err != nil {
				return facadeResult{}, err
			}
			out := facadeResult{labels: r.Representatives[0].Labels,
				stats: map[string]float64{"mean_pairwise": r.MeanPairwise}}
			for _, c := range r.Representatives {
				out.solutions = append(out.solutions, c.Labels)
			}
			return out, nil
		},
	}
	_, srv := newTestServer(t, Config{Workers: 2})
	for _, algo := range Algorithms() {
		t.Run(algo, func(t *testing.T) {
			ref, ok := facade[algo]
			if !ok {
				t.Fatalf("no facade reference for registry name %q", algo)
			}
			spec := registrySpec(algo, false)
			want, err := ref(spec)
			if err != nil {
				t.Fatalf("facade %s: %v", algo, err)
			}
			checkServed(t, pollTerminal(t, srv, submitHTTP(t, srv, spec)), want)
		})
	}
}

// TestHTTPEveryStreamAlgorithmMatchesFacade opens every StreamAlgorithms()
// name with one chunk, closes it by PATCH, and checks the final snapshot's
// result against the facade learner fed the same chunk.
func TestHTTPEveryStreamAlgorithmMatchesFacade(t *testing.T) {
	facade := map[string]func(Spec) (facadeResult, error){
		"kmeans": func(s Spec) (facadeResult, error) {
			m, err := multiclust.NewStreamKMeans(multiclust.StreamKMeansConfig{K: s.K, Seed: s.Seed, MaxIter: s.MaxIter, Restarts: s.Restarts})
			if err != nil {
				return facadeResult{}, err
			}
			if err := m.Push(s.Points); err != nil {
				return facadeResult{}, err
			}
			snap, err := m.Snapshot()
			if err != nil {
				return facadeResult{}, err
			}
			return facadeResult{labels: snap.LastLabels, stats: map[string]float64{"sse": snap.LastSSE}}, nil
		},
		"meta": func(s Spec) (facadeResult, error) {
			e, err := multiclust.NewStreamEnsemble(multiclust.StreamEnsembleConfig{
				K: s.K, PerChunk: s.NumSolutions, MetaClusters: s.MetaClusters, Window: s.Window, Seed: s.Seed})
			if err != nil {
				return facadeResult{}, err
			}
			if err := e.Push(s.Points); err != nil {
				return facadeResult{}, err
			}
			snap, err := e.Snapshot()
			if err != nil {
				return facadeResult{}, err
			}
			out := facadeResult{labels: snap.Representatives[0].Labels,
				stats: map[string]float64{"mean_pairwise": snap.MeanPairwise}}
			for _, c := range snap.Representatives {
				out.solutions = append(out.solutions, c.Labels)
			}
			return out, nil
		},
		"coem": func(s Spec) (facadeResult, error) {
			c, err := multiclust.NewStreamCoEM(multiclust.StreamCoEMConfig{K: s.K, Seed: s.Seed, MaxIter: s.MaxIter})
			if err != nil {
				return facadeResult{}, err
			}
			if err := c.Push(s.Points); err != nil {
				return facadeResult{}, err
			}
			snap, err := c.Snapshot()
			if err != nil {
				return facadeResult{}, err
			}
			return facadeResult{labels: snap.Clustering.Labels,
				stats: map[string]float64{"loglik_a": snap.LogLikA, "loglik_b": snap.LogLikB}}, nil
		},
	}
	_, srv := newTestServer(t, Config{Workers: 2})
	for _, algo := range StreamAlgorithms() {
		t.Run(algo, func(t *testing.T) {
			ref, ok := facade[algo]
			if !ok {
				t.Fatalf("no facade reference for streaming registry name %q", algo)
			}
			spec := registrySpec(algo, true)
			want, err := ref(spec)
			if err != nil {
				t.Fatalf("facade %s: %v", algo, err)
			}
			id := submitHTTP(t, srv, spec)
			resp, body := sendJSON(t, srv, http.MethodPatch, "/v1/jobs/"+id, `{"final": true}`)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("PATCH close = %d: %s", resp.StatusCode, body)
			}
			checkServed(t, pollTerminal(t, srv, id), want)
		})
	}
}
