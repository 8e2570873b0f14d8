package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// client is one closed-loop caller with its own keep-alive connection: it
// sends its next job only after the previous job's result has arrived.
type client struct {
	svc *service
	hc  *http.Client
	tr  *tracer // nil: send no span header, record no spans
	buf bytes.Buffer
}

func newClient(svc *service) *client {
	return &client{svc: svc, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response into c.buf.
func (c *client) do(method, path string, body []byte, ref spanRef) (int, error) {
	req, err := http.NewRequest(method, c.svc.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if c.tr != nil {
		req.Header.Set(spanHeader, strconv.FormatUint(ref.req, 10)+"."+strconv.FormatUint(ref.id, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, fmt.Errorf("%s %s: read: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// call is do wrapped in a client span when tracing.
func (c *client) call(name, method, path string, body []byte, job spanRef) (int, error) {
	if c.tr == nil {
		return c.do(method, path, body, job)
	}
	id, end := c.tr.begin(name, job.req, job.id)
	defer end()
	return c.do(method, path, body, spanRef{req: job.req, id: id})
}

// jobDoc is the part of GET /v1/jobs/{id} the benchmark checks.
type jobDoc struct {
	State    string `json:"state"`
	Attempts int    `json:"attempts"`
	Result   *struct {
		Labels    json.RawMessage `json:"labels"`
		Solutions json.RawMessage `json:"solutions"`
	} `json:"result"`
	Metrics map[string]int64 `json:"metrics"`
}

// outcome is what one job left behind.
type outcome struct {
	id      string
	ok      bool
	latency time.Duration
	// resultBytes is the size of the result document, the one response
	// whose bytes do not depend on timing (acknowledgements report the
	// job's state at that instant).
	resultBytes int
	doc         jobDoc
	err         error
}

// runJob submits one job, waits for it through Engine.Get(id).Done() and
// fetches the result with one GET. The latency window runs from the first
// byte sent to the result body fully read. A streaming job opens with a
// POST, PATCHes every chunk and the closing {"final":true}, then GETs its
// final snapshot.
func (c *client) runJob(w workload, in *input, want bool) outcome {
	var o outcome
	var job spanRef
	end := func() {}
	if c.tr != nil {
		job.id, end = c.tr.begin("client.job", 0, 0)
		job.req = job.id
	}
	start := time.Now()
	o.err = c.submit(w, in, job, &o)
	if o.err == nil {
		o.err = c.await(o.id, job)
	}
	if o.err == nil {
		var status int
		status, o.err = c.call("client.GET", http.MethodGet, "/v1/jobs/"+o.id, nil, job)
		o.resultBytes = c.buf.Len()
		if o.err == nil && status != http.StatusOK {
			o.err = fmt.Errorf("GET %s: status %d", o.id, status)
		}
	}
	o.latency = time.Since(start)
	end()
	if o.err != nil {
		return o
	}
	if o.err = json.Unmarshal(c.buf.Bytes(), &o.doc); o.err != nil {
		return o
	}
	got := json.RawMessage(nil)
	if o.doc.Result != nil {
		got = o.doc.Result.Labels
		if w.algo == "meta" && !w.stream() {
			got = o.doc.Result.Solutions
		}
	}
	o.ok = want && o.doc.State == "done" && bytes.Equal(got, in.want)
	return o
}

func (c *client) submit(w workload, in *input, job spanRef, o *outcome) error {
	status, err := c.call("client.POST", http.MethodPost, "/v1/jobs", in.body, job)
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("POST: status %d: %s", status, c.buf.Bytes())
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(c.buf.Bytes(), &sub); err != nil {
		return fmt.Errorf("POST: %w", err)
	}
	o.id = sub.ID
	for _, b := range in.chunkBodies {
		status, err := c.call("client.PATCH", http.MethodPatch, "/v1/jobs/"+o.id, b, job)
		if err != nil {
			return err
		}
		if status != http.StatusAccepted {
			return fmt.Errorf("PATCH %s: status %d: %s", o.id, status, c.buf.Bytes())
		}
	}
	return nil
}

// await blocks until the job is terminal; no polling.
func (c *client) await(id string, job spanRef) error {
	if c.tr != nil {
		_, end := c.tr.begin("client.wait", job.req, job.id)
		defer end()
	}
	j, err := c.svc.eng.Get(id)
	if err != nil {
		return err
	}
	<-j.Done()
	return nil
}

// phase is what one closed-loop phase measured.
type phase struct {
	latencies []time.Duration
	attempted int
	ok        int
	wall      time.Duration
	firstErr  error
}

// add folds another phase's jobs into p.
func (p *phase) add(q phase) {
	p.latencies = append(p.latencies, q.latencies...)
	p.attempted += q.attempted
	p.ok += q.ok
	p.wall += q.wall
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

// closedLoop runs w.clients clients. They take inputs 0, 1, 2, …
// cyclically from one shared counter and send at most limit jobs in all
// (0: no limit). stop, when non-nil, is consulted after every job with the
// time elapsed and the jobs completed so far; once it says so, the clients
// send jobs only up to the next multiple of len(ins), so every input runs
// equally often.
func closedLoop(svc *service, w workload, ins []*input, wantOK []bool, tr *tracer, limit int,
	stop func(elapsed time.Duration, jobs int) bool) phase {
	var (
		done  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex // guards next, limit and p
		next  int        // jobs handed out
		p     phase
		start = time.Now()
	)
	if limit <= 0 {
		limit = math.MaxInt
	}
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= limit {
			return 0, false
		}
		next++
		return (next - 1) % len(ins), true
	}
	for ci := 0; ci < w.clients; ci++ {
		c := newClient(svc)
		c.tr = tr
		wg.Add(1)
		//lint:ignore nakedgo closed-loop load generator, joined by wg.Wait below; it runs no algorithm code
		go func(c *client) {
			defer wg.Done()
			defer c.close()
			var q phase
			for {
				i, ok := take()
				if !ok {
					break
				}
				o := c.runJob(w, ins[i], wantOK[i])
				q.attempted++
				q.latencies = append(q.latencies, o.latency)
				if o.ok {
					q.ok++
				} else if q.firstErr == nil {
					q.firstErr = fmt.Errorf("job %s on input %d: ok=false err=%v", o.id, i, o.err)
				}
				if stop != nil && stop(time.Since(start), int(done.Add(1))) {
					mu.Lock()
					limit = min(limit, (next+len(ins)-1)/len(ins)*len(ins))
					mu.Unlock()
				}
			}
			mu.Lock()
			p.add(q)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

// percentile is the nearest-rank q-quantile of the latencies, in ms.
func (p phase) percentile(q float64) float64 {
	if len(p.latencies) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), p.latencies...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := min(len(s), max(1, int(math.Ceil(q*float64(len(s)))))) - 1
	return float64(s[i].Nanoseconds()) / 1e6
}
