package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// oracleDecode is the reference the wire decoder must agree with:
// encoding/json decoding the whole body, unknown fields disallowed, plus
// two rules: only whitespace may follow the value, and at most one
// top-level key may match the points field.
func oracleDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return errors.New("trailing bytes after the value")
	}
	if pointsKeys(body) > 1 {
		return errors.New("duplicate points member")
	}
	return nil
}

// pointsKeys counts the top-level keys of body, a value encoding/json has
// accepted, that encoding/json itself matches to a field named "points".
func pointsKeys(body []byte) int {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, _ := dec.Token(); tok != json.Delim('{') {
		return 0
	}
	n := 0
	for dec.More() {
		tok, _ := dec.Token()
		var skip json.RawMessage
		_ = dec.Decode(&skip)
		obj, _ := json.Marshal(map[string]any{tok.(string): nil})
		var probe struct {
			Points any `json:"points"`
		}
		strict := json.NewDecoder(bytes.NewReader(obj))
		strict.DisallowUnknownFields()
		if strict.Decode(&probe) == nil {
			n++
		}
	}
	return n
}

// wireSeeds covers the corners where a hand-written decoder is most
// likely to part from encoding/json.
var wireSeeds = []string{
	`{"algo":"kmeans","points":[[1,2],[3,4]],"k":2,"seed":7,"timeout_ms":100}`,
	`{"points":[[1,2]],"final":true}`,
	`{"final":true}`,
	`{"points":null}`,
	`{"points":[]}`,
	`{"points":[[]]}`,
	`{"points":[null,[1,2],null]}`,
	`{"points":[[1,null],[null]]}`,
	`{"points":[[-0,0,-0.0,-0e5]]}`,
	`{"points":[[1e400]]}`,
	`{"points":[[-1e400]]}`,
	`{"points":[[1e-400,4.9e-324,2.2250738585072014e-308]]}`,
	`{"points":[[1E+2,1e-2,2.5E3,1e+0]]}`,
	`{"points":[[0.1,0.2,0.30000000000000004,123456789012345678901234567890.5e-3]]}`,
	`{"points":[[01]]}`,
	`{"points":[[-01]]}`,
	`{"points":[[.5]]}`,
	`{"points":[[1.]]}`,
	`{"points":[[1e]]}`,
	`{"points":[[-]]}`,
	`{"points":[[+1]]}`,
	`{"points":[[Infinity,NaN]]}`,
	`{"points":[[0x10]]}`,
	`{"points":[[1_000]]}`,
	`{"Points":[[1]]}`,
	`{"POINTS":[[1]]}`,
	`{"pOiNtS":[[1]]}`,
	`{"points":[[1]]}`,
	`{"poinTſ":[[1]]}`,
	`{"poinT\u017f":[[1]]}`,
	`{"points\u0000":[[1]]}`,
	"{\"points\xff\":[[1]]}",
	`{"points":[[1,2,3]],"points":[[4]]}`,
	`{"points":[[1,2,3]],"points":[[4]],"points":[[5,null,null]]}`,
	`{"points":[[1],[2,3]],"Points":[[4]],"POINTS":[[5],[null,null]]}`,
	`{"points":[[1,2]],"points":[[]],"points":[[null]]}`,
	`{"points":[[1,2]],"points":null,"points":[[null]]}`,
	`{"points":[[1,2]],"points":[null],"points":[[null,null]]}`,
	`{"points":[[1,2]],"k":2,"points":[]}`,
	`{"points":[[1,"2"]]}`,
	`{"points":[["1"]]}`,
	`{"points":[[1,true]]}`,
	`{"points":[[1,[2]]]}`,
	`{"points":[[1,{}]]}`,
	`{"points":[1,2]}`,
	`{"points":[{"a":1}]}`,
	`{"points":{"a":1}}`,
	`{"points":"[[1]]"}`,
	`{"points":true}`,
	`{"points":7}`,
	`{"points":[[nul]]}`,
	`{"points":[[nullx]]}`,
	`{"points":[[1]}`,
	`{"points":[[1],]}`,
	`{"points":[[1,]]}`,
	`{"points":[,[1]]}`,
	`{"points":[[1 2]]}`,
	`{"points":[[1]],}`,
	`{"points":[[1]] "k":2}`,
	`{"points" [[1]]}`,
	`{points:[[1]]}`,
	`{"points":`,
	`{"points":[[1]]`,
	" \n\t{ \"points\" : [ [ 1 , 2 ] , [ 3 , 4 ] ] , \"algo\" : \"x\" } \r\n",
	"{\"points\":\t[\n[\r1\n,\n2\t]\r]\n}",
	`{"algo":"kmeans","points":[[1,2]],"k":2} garbage{`,
	`{"algo":"kmeans","points":[[1,2]],"k":2}` + "\n",
	`{"points":[[1]]}{"points":[[2]]}`,
	`{"points":[[1]]} ]`,
	`{"k":"x\"points\":[[1]]"}`,
	`{"algo":"a\\","points":[[1]]}`,
	`{"algo":"é😀","points":[[1]]}`,
	`{"window":{"points":[[1]]}}`,
	`{"bogus":[[1]],"points":[[2]]}`,
	`{"algo":7,"points":[[1]]}`,
	`{"k":1.5,"points":[[1]]}`,
	`{"seed":-3,"stream":true,"window":4,"idempotency_key":"a"}`,
	`{"algo":"x","algo":"y"}`,
	`{}`,
	`null`,
	` null `,
	`[]`,
	`[{"points":[[1]]}]`,
	`"points"`,
	`7`,
	``,
	` `,
	`{`,
	`}`,
}

// fuzzDecode checks decode against oracleDecode on every input: both
// reject, or both accept with deeply equal results and bit-identical
// points.
func fuzzDecode[T any](f *testing.F, decode func([]byte) (T, error), points func(T) [][]float64) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want T
		wantErr := oracleDecode(body, &want)
		got, err := decode(body)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("body %q: decode error %v, encoding/json error %v", body, err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: decoded %+v, encoding/json %+v", body, got, want)
		}
		gp, wp := points(got), points(want)
		for i := range wp {
			for j := range wp[i] {
				if math.Float64bits(gp[i][j]) != math.Float64bits(wp[i][j]) {
					t.Fatalf("body %q: point [%d][%d] = %v, encoding/json %v", body, i, j, gp[i][j], wp[i][j])
				}
			}
		}
	})
}

func FuzzDecodeSpec(f *testing.F) {
	fuzzDecode(f, decodeSpec, func(s Spec) [][]float64 { return s.Points })
}

func FuzzDecodeChunk(f *testing.F) {
	fuzzDecode(f, decodeChunk, func(r appendRequest) [][]float64 { return r.Points })
}

// specBody is the JSON body of a rows×dims k-means job, the shape the
// service benchmark sends.
func specBody(t testing.TB, rows, dims int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(rows)))
	pts := make([][]float64, rows)
	for i := range pts {
		pts[i] = make([]float64, dims)
		for j := range pts[i] {
			pts[i][j] = rng.NormFloat64() * 10
		}
	}
	body, err := json.Marshal(Spec{Algo: "kmeans", Points: pts, K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestDecodeRowsAreCappedSlicesOfOneArray(t *testing.T) {
	spec, err := decodeSpec([]byte(`{"points":[[1,2],[3],null,[],[4,5,6]]}`))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{1, 2}, {3}, nil, {}, {4, 5, 6}}
	if !reflect.DeepEqual(spec.Points, want) {
		t.Fatalf("points = %v, want %v", spec.Points, want)
	}
	for i, row := range spec.Points {
		if cap(row) != len(row) {
			t.Fatalf("row %d: cap %d, len %d; rows must be capped", i, cap(row), len(row))
		}
	}
	// Capped rows cannot grow into their neighbour's storage.
	_ = append(spec.Points[0], 99)
	if spec.Points[1][0] != 3 {
		t.Fatalf("appending to row 0 overwrote row 1: %v", spec.Points)
	}
}

func TestDecodeAllocsIndependentOfRows(t *testing.T) {
	small, large := specBody(t, 1000, 8), specBody(t, 20000, 8)
	count := func(body []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := decodeSpec(body); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1, a20 := count(small), count(large)
	// The flat array, the row headers, the rest of the body and
	// encoding/json's decoder over it; nothing per row or per number.
	const limit = 24
	if a1 != a20 || a20 > limit {
		t.Fatalf("decode allocs: %v at 1k rows, %v at 20k rows; want equal and at most %d", a1, a20, limit)
	}
}

func BenchmarkDecodeSpec(b *testing.B) {
	for _, c := range []struct {
		name string
		rows int
	}{{"1k", 1000}, {"20k", 20000}} {
		body := specBody(b, c.rows, 8)
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeSpec(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// unreadable fails the test if the handler reads any of the body.
type unreadable struct{ t *testing.T }

func (u unreadable) Read([]byte) (int, error) {
	u.t.Error("body read despite a declared Content-Length over the limit")
	return 0, io.EOF
}

func TestHTTPDeclaredLengthOverLimitIs413Unread(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, Runners: map[string]Runner{"instant": instantRunner}})
	for _, method := range []string{http.MethodPost, http.MethodPatch} {
		path := "/v1/jobs"
		if method == http.MethodPatch {
			path += "/j-1"
		}
		req := httptest.NewRequest(method, path, unreadable{t})
		req.ContentLength = maxBodyBytes + 1
		rec := httptest.NewRecorder()
		e.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with Content-Length over the limit = %d %s, want 413", method, rec.Code, rec.Body)
		}
	}
}

func TestReadBodyLimits(t *testing.T) {
	const limit = 1 << 10
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(w, r, limit)
		if err != nil {
			writeJSON(w, bodyStatus(err), errorResponse{Error: err.Error()})
			return
		}
		fmt.Fprintf(w, "%d %d", r.ContentLength, len(body))
	}))
	t.Cleanup(srv.Close)
	send := func(body io.Reader) (int, string) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL, "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}
	// io.MultiReader hides the length, so the client sends it chunked.
	chunked := func(n int) io.Reader { return io.MultiReader(strings.NewReader(strings.Repeat(" ", n))) }
	for _, c := range []struct {
		name   string
		body   io.Reader
		status int
		out    string
	}{
		{"declared at limit", strings.NewReader(strings.Repeat(" ", limit)), http.StatusOK, "1024 1024"},
		{"declared over limit", strings.NewReader(strings.Repeat(" ", limit+1)), http.StatusRequestEntityTooLarge, ""},
		{"chunked at limit", chunked(limit), http.StatusOK, "-1 1024"},
		{"chunked over limit", chunked(4 * limit), http.StatusRequestEntityTooLarge, ""},
	} {
		status, out := send(c.body)
		if status != c.status || (c.out != "" && out != c.out) {
			t.Errorf("%s: %d %q, want %d %q", c.name, status, out, c.status, c.out)
		}
	}
}

func TestReadBodyPresizeIsCapped(t *testing.T) {
	for _, c := range []struct {
		name     string
		declared int64
		body     string
		maxCap   int
	}{
		// A claim of 64 MiB backed by ten bytes pins no more than the cap.
		{"declared limit, ten bytes sent", maxBodyBytes, "0123456789", maxPresize + bytes.MinRead},
		// An honest length under the cap is read in its one allocation.
		{"declared exact", 10, "0123456789", 10 + bytes.MinRead},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(c.body))
		req.ContentLength = c.declared
		body, err := readBody(httptest.NewRecorder(), req, maxBodyBytes)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(body) != c.body || cap(body) > c.maxCap {
			t.Fatalf("%s: read %q into a %d-byte buffer, want %q in at most %d", c.name, body, cap(body), c.body, c.maxCap)
		}
	}
}
