package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"multiclust"
	"multiclust/internal/ops"
	"multiclust/serve"
)

// The service is sized as the CLI sizes it on a 2-CPU machine, so numbers
// mean the same on larger ones.
const (
	procs         = 2  // GOMAXPROCS
	engineWorkers = 2  // serve.Config.Workers
	facadeWorkers = 2  // multiclust.SetWorkers
	queueSize     = 64 // serve.Config.QueueSize
)

// service is one in-process /v1/jobs server on loopback, wired as
// `multiclust -serve` wires it: the engine mounted on the ops mux inside
// ops.Instrument, with Ready hooked to the engine and no access log.
type service struct {
	eng    *serve.Engine
	srv    *http.Server
	url    string
	served chan error
}

// startService listens on an ephemeral loopback port. With tr non-nil the
// server can switch, while it runs, to an identical stack whose layer
// boundaries record spans into tr.
func startService(col *multiclust.Collector, tr *tracer) (*service, error) {
	eng := serve.New(serve.Config{Workers: engineWorkers, QueueSize: queueSize})
	api := eng.Handler()
	opts := ops.MuxOptions{
		Ready:  eng.Ready,
		Mounts: map[string]http.Handler{"/v1/jobs": api, "/v1/jobs/": api},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Drain(context.Background())
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := ops.NewServerOpts(ln.Addr().String(), col, opts)
	if tr != nil {
		japi := tr.wrapAPI(api)
		topts := opts
		topts.Mounts = map[string]http.Handler{"/v1/jobs": japi, "/v1/jobs/": japi}
		traced := tr.wrap("ops.instrument", ops.Instrument(tr.wrap("ops.mux", ops.NewMuxOpts(col, topts)), nil))
		srv.Handler = &switchHandler{on: &tr.on, plain: srv.Handler, traced: traced}
	}
	s := &service{eng: eng, srv: srv, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	//lint:ignore nakedgo HTTP accept loop, joined in stop; it runs no algorithm code
	go func() { s.served <- srv.Serve(ln) }()
	return s, nil
}

// stop drains the engine, closes the listener and waits for the serve
// loop to return.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.eng.Drain(ctx)
	if err := s.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-s.served; err != nil && err != http.ErrServerClosed {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// switchHandler serves through the traced stack while tracing is on and
// through the untouched ops stack otherwise.
type switchHandler struct {
	on            *atomic.Bool
	plain, traced http.Handler
}

func (h *switchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.on.Load() {
		h.traced.ServeHTTP(w, r)
		return
	}
	h.plain.ServeHTTP(w, r)
}

// span is one timed call across a layer boundary. Spans of one job share
// Req, the id of the client's job span; Parent is the span that caused it.
type span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Req     uint64 `json:"req"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// tracer keeps spans in memory until the run ends. Only the benchmark's
// own files record spans: around client calls, around the ops and jobs
// HTTP layers, and around direct engine and facade calls.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanHeader carries "<req>.<parent>" from the client to the server-side
// wrappers.
const spanHeader = "X-Bench-Span"

type spanCtxKey struct{}

type spanRef struct{ req, id uint64 }

// begin opens a span and returns its id and the function that closes it.
func (t *tracer) begin(name string, req, parent uint64) (uint64, func()) {
	id := t.ids.Add(1)
	if req == 0 {
		req = id
	}
	start := time.Now()
	return id, func() {
		d := time.Since(start)
		t.mu.Lock()
		t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req,
			StartNs: start.Sub(t.epoch).Nanoseconds(), DurNs: d.Nanoseconds()})
		t.mu.Unlock()
	}
}

// wrap records a span named name around next, parented on the span the
// request carries (from the client header or an outer wrapper).
func (t *tracer) wrap(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.serveSpan(name, next, w, r)
	})
}

// wrapAPI records one span per request around Engine.Handler, named by
// method ("jobs.POST", "jobs.GET", "jobs.PATCH"; "jobs.GET.trace" for the
// trace document).
func (t *tracer) wrapAPI(api http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "jobs." + r.Method
		if strings.HasSuffix(r.URL.Path, "/trace") {
			name += ".trace"
		}
		t.serveSpan(name, api, w, r)
	})
}

func (t *tracer) serveSpan(name string, next http.Handler, w http.ResponseWriter, r *http.Request) {
	ref, ok := r.Context().Value(spanCtxKey{}).(spanRef)
	if !ok {
		ref = parseSpanHeader(r.Header.Get(spanHeader))
	}
	id, end := t.begin(name, ref.req, ref.id)
	r = r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, spanRef{req: ref.req, id: id}))
	defer end()
	next.ServeHTTP(w, r)
}

func parseSpanHeader(v string) spanRef {
	a, b, _ := strings.Cut(v, ".")
	req, _ := strconv.ParseUint(a, 10, 64)
	id, _ := strconv.ParseUint(b, 10, 64)
	return spanRef{req: req, id: id}
}

// layerStats aggregates the recorded spans of one name: their mean
// duration and their mean self time (duration minus the part covered by
// child spans).
type layerStats struct {
	meanNs float64
	selfNs float64
}

func (t *tracer) stats() map[string]layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.DurNs
		}
	}
	sum := map[string][2]int64{}
	count := map[string]int{}
	for _, s := range t.spans {
		v := sum[s.Name]
		v[0] += s.DurNs
		v[1] += s.DurNs - children[s.ID]
		sum[s.Name] = v
		count[s.Name]++
	}
	out := make(map[string]layerStats, len(sum))
	for name, v := range sum {
		n := float64(count[name])
		out[name] = layerStats{meanNs: float64(v[0]) / n, selfNs: float64(v[1]) / n}
	}
	return out
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
