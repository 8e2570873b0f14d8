package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"multiclust/serve"
)

func TestPublicSurfaceEndToEnd(t *testing.T) {
	eng := serve.New(serve.Config{Workers: 2, QueueSize: 16})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		eng.Drain(ctx)
	}()

	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()

	body := `{"algo":"kmeans","points":[[0,0],[0,1],[10,10],[10,11]],"k":2,"seed":1}`
	resp, err := srv.Client().Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	var sub struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		t.Fatalf("submit: status %d, body %+v", resp.StatusCode, sub)
	}

	j, err := eng.Get(sub.ID)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("job never finished")
	}
	if j.State() != serve.StateDone {
		t.Fatalf("state = %v (err %v), want done", j.State(), j.Err())
	}
	if r := j.Result(); r == nil || r.K != 2 {
		t.Fatalf("result = %+v", r)
	}
}

func TestCustomRunnerThroughFacadeAlias(t *testing.T) {
	// An embedder outside the module implements the seam with serve's own
	// types; this pins that it stays implementable.
	custom := func(_ context.Context, spec serve.Spec, _ int64) (*serve.Outcome, error) {
		return &serve.Outcome{Labels: make([]int, len(spec.Points)), K: 1}, nil
	}
	eng := serve.New(serve.Config{Workers: 1, Runners: map[string]serve.Runner{"custom": custom}})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		eng.Drain(ctx)
	}()
	j, dup, err := eng.Submit(serve.Spec{Algo: "custom", Points: [][]float64{{1, 2}}})
	if err != nil || dup {
		t.Fatalf("Submit: dup=%v err=%v", dup, err)
	}
	<-j.Done()
	if j.State() != serve.StateDone {
		t.Fatalf("state = %v, want done", j.State())
	}
}

func TestStreamingLifecycleThroughFacade(t *testing.T) {
	eng := serve.New(serve.Config{Workers: 2, QueueSize: 16})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		eng.Drain(ctx)
	}()

	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()

	body := `{"algo":"kmeans","stream":true,"points":[[0,0],[0,1],[10,10],[10,11]],"k":2,"seed":1}`
	resp, err := srv.Client().Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		t.Fatalf("submit: status %d, body %+v", resp.StatusCode, sub)
	}

	patch := func(raw string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPatch, srv.URL+"/v1/jobs/"+sub.ID, strings.NewReader(raw))
		if err != nil {
			t.Fatalf("new request: %v", err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatalf("patch: %v", err)
		}
		return resp
	}

	resp = patch(`{"points":[[0,2],[10,12]]}`)
	var app struct {
		ChunksAcked int   `json:"chunks_acked"`
		RowsAcked   int64 `json:"rows_acked"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&app); err != nil {
		t.Fatalf("decode append: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || app.ChunksAcked != 2 || app.RowsAcked != 6 {
		t.Fatalf("append: status %d, body %+v", resp.StatusCode, app)
	}

	resp = patch(`{"final":true}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("final append: status %d", resp.StatusCode)
	}

	j, err := eng.Get(sub.ID)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("stream never finished")
	}
	if j.State() != serve.StateDone {
		t.Fatalf("state = %v (err %v), want done", j.State(), j.Err())
	}
	if r := j.Result(); r == nil || r.Stats["rows_seen"] != 6 {
		t.Fatalf("result = %+v, want rows_seen 6", r)
	}
	// A chunk after the close contradicts recorded state: the re-exported
	// conflict sentinel must match the one the engine returns.
	if _, err := eng.Append(sub.ID, [][]float64{{1, 1}}, false); !errors.Is(err, serve.ErrConflict) {
		t.Fatalf("append after close: want serve.ErrConflict, got %v", err)
	}
}

func TestCustomStreamFactoryThroughFacadeAlias(t *testing.T) {
	// Same seam-pinning as the custom Runner test: an embedder must be able
	// to plug a streaming learner using only serve-exported names.
	eng := serve.New(serve.Config{
		Workers: 1,
		Streams: map[string]serve.StreamFactory{
			"counter": func(serve.Spec) (serve.StreamHandle, error) {
				return &countingStream{}, nil
			},
		},
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		eng.Drain(ctx)
	}()

	j, _, err := eng.Submit(serve.Spec{Algo: "counter", Stream: true, Points: [][]float64{{1}, {2}}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := eng.Append(j.ID, [][]float64{{3}}, true); err != nil {
		t.Fatalf("Append: %v", err)
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("stream never finished")
	}
	if j.State() != serve.StateDone {
		t.Fatalf("state = %v (err %v), want done", j.State(), j.Err())
	}
	if r := j.Result(); r == nil || r.Stats["rows"] != 3 {
		t.Fatalf("result = %+v, want rows 3", r)
	}
}

// countingStream is the minimal StreamHandle an embedder might write: it
// only tallies rows. The engine serializes calls, so no locking is needed.
type countingStream struct{ rows int }

func (c *countingStream) PushChunk(_ context.Context, rows [][]float64) error {
	c.rows += len(rows)
	return nil
}

func (c *countingStream) Snapshot(context.Context) (*serve.Outcome, error) {
	return &serve.Outcome{K: 1, Stats: map[string]float64{"rows": float64(c.rows)}}, nil
}

func TestErrorsAndAlgorithmsReExported(t *testing.T) {
	eng := serve.New(serve.Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		eng.Drain(ctx)
	}()
	if _, _, err := eng.Submit(serve.Spec{Algo: "nope", Points: [][]float64{{1}}}); !errors.Is(err, serve.ErrBadSpec) {
		t.Fatalf("want serve.ErrBadSpec, got %v", err)
	}
	if _, err := eng.Get("j-404"); !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("want serve.ErrNotFound, got %v", err)
	}
	algos := serve.Algorithms()
	if len(algos) == 0 {
		t.Fatal("Algorithms() empty")
	}
	found := false
	for _, a := range algos {
		if a == "kmeans" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Algorithms() = %v, want kmeans present", algos)
	}
	streams := serve.StreamAlgorithms()
	if len(streams) == 0 {
		t.Fatal("StreamAlgorithms() empty")
	}
	found = false
	for _, a := range streams {
		if a == "kmeans" {
			found = true
		}
	}
	if !found {
		t.Fatalf("StreamAlgorithms() = %v, want kmeans present", streams)
	}
}
