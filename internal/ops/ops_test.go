package ops

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"multiclust/internal/obs"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// The acceptance contract: /metrics returns exactly the bytes
// Collector.WriteProm renders for the same state.
func TestServeMetricsMatchesWriteProm(t *testing.T) {
	col := obs.NewCollector()
	col.Count("kmeans.iterations", 12)
	col.Gauge("metaclust.mean_pairwise", 0.25)
	col.Observe("em.loglik", 0, -42.5)
	_, end := obs.SpanCtx(context.Background(), col, "kmeans.run")
	end()

	h, err := ServeOpts("127.0.0.1:0", col, MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := h.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	code, body := get(t, h.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d, want 200", code)
	}
	var want strings.Builder
	if err := col.WriteProm(&want); err != nil {
		t.Fatal(err)
	}
	if body != want.String() {
		t.Errorf("/metrics differs from WriteProm:\n--- http ---\n%s--- direct ---\n%s", body, want.String())
	}
	if !strings.Contains(body, "multiclust_kmeans_iterations_total 12\n") {
		t.Errorf("/metrics missing expected line:\n%s", body)
	}
}

func TestServeSpansAndHealthz(t *testing.T) {
	col := obs.NewCollector()
	rctx, endRoot := obs.SpanCtx(context.Background(), col, "metaclust.run")
	_, end := obs.SpanCtx(rctx, col, "metaclust.generate")
	end()
	endRoot()

	h, err := ServeOpts("127.0.0.1:0", col, MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown(context.Background())

	code, body := get(t, h.URL+"/spans")
	if code != http.StatusOK {
		t.Fatalf("/spans status = %d, want 200", code)
	}
	if !strings.Contains(body, "metaclust.run count=1") ||
		!strings.Contains(body, "  metaclust.generate count=1") {
		t.Errorf("/spans missing indented tree:\n%s", body)
	}

	code, body = get(t, h.URL+"/healthz")
	if code != http.StatusOK || !strings.HasPrefix(body, "ok uptime_s=") {
		t.Errorf("/healthz = %d %q", code, body)
	}
}

func TestServePprofEndpoints(t *testing.T) {
	h, err := ServeOpts("127.0.0.1:0", obs.NewCollector(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown(context.Background())

	code, body := get(t, h.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d, want 200 with profile index", code)
	}
	code, body = get(t, h.URL+"/debug/pprof/heap?debug=1")
	if code != http.StatusOK || !strings.Contains(body, "heap profile") {
		t.Errorf("/debug/pprof/heap?debug=1 = %d, body %.60q", code, body)
	}
}

func TestNilCollectorReturns503(t *testing.T) {
	h, err := ServeOpts("127.0.0.1:0", nil, MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown(context.Background())
	for _, path := range []string{"/metrics", "/spans"} {
		if code, _ := get(t, h.URL+path); code != http.StatusServiceUnavailable {
			t.Errorf("%s with nil collector = %d, want 503", path, code)
		}
	}
	if code, _ := get(t, h.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz must stay healthy without a collector, got %d", code)
	}
}

func TestServeRejectsBadAddr(t *testing.T) {
	if _, err := ServeOpts("256.256.256.256:99999", nil, MuxOptions{}); err == nil {
		t.Fatal("Serve on an invalid address must error")
	}
}

func TestReadyzWithoutHookMirrorsLiveness(t *testing.T) {
	h, err := ServeOpts("127.0.0.1:0", nil, MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown(context.Background())
	if code, body := get(t, h.URL+"/readyz"); code != http.StatusOK || !strings.HasPrefix(body, "ready") {
		t.Errorf("/readyz without hook = %d %q, want 200 ready", code, body)
	}
}

func TestReadyzReportsNotReady(t *testing.T) {
	// The hook is consulted per request, so readiness can flip live — the
	// saturated-queue / draining signal the job engine feeds it.
	ready := make(chan error, 1)
	ready <- nil
	hook := func() error {
		err := <-ready
		ready <- err
		return err
	}
	h, err := ServeOpts("127.0.0.1:0", nil, MuxOptions{Ready: hook})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown(context.Background())

	if code, body := get(t, h.URL+"/readyz"); code != http.StatusOK || !strings.HasPrefix(body, "ready") {
		t.Fatalf("/readyz while ready = %d %q", code, body)
	}
	<-ready
	ready <- errTestSaturated
	code, body := get(t, h.URL+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while saturated = %d, want 503", code)
	}
	if !strings.Contains(body, "queue saturated") {
		t.Fatalf("/readyz body %q missing the reason", body)
	}
	// Liveness is unaffected: /healthz keeps answering 200.
	if code, _ := get(t, h.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz during saturation = %d, want 200", code)
	}
}

var errTestSaturated = errTest("queue saturated")

type errTest string

func (e errTest) Error() string { return string(e) }

func TestMountsServeApplicationHandlers(t *testing.T) {
	mounted := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		io.WriteString(w, "mounted:"+r.URL.Path)
	})
	h, err := ServeOpts("127.0.0.1:0", nil, MuxOptions{Mounts: map[string]http.Handler{
		"/v1/jobs":  mounted,
		"/v1/jobs/": mounted,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown(context.Background())

	for _, path := range []string{"/v1/jobs", "/v1/jobs/j-1"} {
		code, body := get(t, h.URL+path)
		if code != http.StatusTeapot || !strings.HasPrefix(body, "mounted:") {
			t.Errorf("%s = %d %q, want the mounted handler", path, code, body)
		}
	}
	// The ops endpoints still work next to the mounts.
	if code, _ := get(t, h.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz with mounts = %d", code)
	}
}
