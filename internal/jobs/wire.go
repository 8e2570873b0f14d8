package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// Wire decoding of the POST and PATCH bodies. A job's points are nearly
// all of its body, and reflection-decoding them as [][]float64 costs one
// allocation per row and several scanner passes. Here the body is read
// once into a buffer; each top-level "points" member is measured by a
// quick scan, then checked and parsed into one exactly sized []float64
// whose rows are capped sub-slices. Every other member is decoded by
// encoding/json from a copy of the body with the points value replaced by
// null, so its semantics and errors are encoding/json's own. A body with
// more than one points member is refused rather than merged.

// maxPresize caps the buffer readBody allocates before any body byte has
// arrived. A declared length is only a claim: a client that declares 64 MiB
// and sends ten bytes must not pin 64 MiB. Bodies up to the cap still read
// in one allocation; larger ones grow with the bytes that actually arrive.
const maxPresize = 4 << 20

// readBody reads the whole request body into one buffer sized from the
// declared Content-Length, up to maxPresize. A declared length over limit
// is refused before any body byte is read; a body of unknown length is cut
// off at limit by http.MaxBytesReader. Both report *http.MaxBytesError.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	// MinRead of spare room lets ReadFrom see EOF without regrowing.
	presize := min(max(r.ContentLength, 0), maxPresize)
	buf := bytes.NewBuffer(make([]byte, 0, presize+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// bodyStatus maps a read or decode error to its HTTP status.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decodeSpec decodes a POST /v1/jobs body.
func decodeSpec(body []byte) (Spec, error) {
	var spec Spec
	points, err := decodeWithPoints(body, &spec)
	spec.Points = points
	return spec, err
}

// decodeChunk decodes a PATCH /v1/jobs/{id} body.
func decodeChunk(body []byte) (appendRequest, error) {
	var req appendRequest
	points, err := decodeWithPoints(body, &req)
	req.Points = points
	return req, err
}

// decodeWithPoints decodes body, one JSON value and nothing but whitespace
// after it, into v with unknown fields disallowed, and returns its points
// member, which v's own points field does not receive.
func decodeWithPoints(body []byte, v any) ([][]float64, error) {
	rest, sp, found, err := splitPoints(body)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(rest))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return nil, err
	}
	for i := int(dec.InputOffset()); i < len(rest); i++ {
		if !isSpace(rest[i]) {
			return nil, fmt.Errorf("invalid character %q after top-level value", rest[i])
		}
	}
	if !found {
		return nil, nil
	}
	return fillPoints(body[sp.start:sp.end], sp)
}

// pointsSpan locates one points value in the body and counts its rows
// and its numbers, null ones included.
type pointsSpan struct {
	start, end int
	rows, nums int
}

// splitPoints walks the members of body's top-level object. It measures
// the value whose key encoding/json would match to the points field, and
// returns a copy of body with that value replaced by null; found reports
// whether there was one. A second such key is an error.
// The walk only finds member boundaries: whatever it skips is left for
// encoding/json to check. A body that is not an object is returned as is.
func splitPoints(body []byte) (rest []byte, sp pointsSpan, found bool, err error) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return body, sp, false, nil
	}
	for i = skipSpace(body, i+1); i == len(body) || body[i] != '}'; {
		if i == len(body) || body[i] != '"' {
			return nil, sp, false, syntaxError(body, i, "looking for beginning of object key string")
		}
		keyEnd := skipString(body, i)
		key := body[i:keyEnd]
		if i = skipSpace(body, keyEnd); i == len(body) || body[i] != ':' {
			return nil, sp, false, syntaxError(body, i, "after object key")
		}
		i = skipSpace(body, i+1)
		if isPointsKey(key) {
			if found {
				return nil, sp, false, fmt.Errorf("duplicate points member %s at offset %d", key, keyEnd-len(key))
			}
			if sp, err = scanPoints(body, i); err != nil {
				return nil, sp, false, err
			}
			found, i = true, sp.end
		} else {
			i = skipValue(body, i)
		}
		switch i = skipSpace(body, i); {
		case i < len(body) && body[i] == ',':
			i = skipSpace(body, i+1)
		case i == len(body) || body[i] != '}':
			return nil, sp, false, syntaxError(body, i, "after object key:value pair")
		}
	}
	if !found {
		return body, sp, false, nil
	}
	rest = make([]byte, 0, len(body)-(sp.end-sp.start)+len("null"))
	rest = append(append(append(rest, body[:sp.start]...), "null"...), body[sp.end:]...)
	return rest, sp, true, nil
}

// scanPoints measures the points value at b[i]: null, or an array whose
// elements are null or rows. It checks the outer array's grammar and finds
// each row's end as its first ']'; fillPoints checks what lies between.
// A row's elements are its commas plus one, exact for every row
// fillPoints accepts.
func scanPoints(b []byte, i int) (pointsSpan, error) {
	sp := pointsSpan{start: i}
	if isNull(b, i) {
		sp.end = i + len("null")
		return sp, nil
	}
	if i == len(b) || b[i] != '[' {
		return sp, syntaxError(b, i, "in points, want an array of number arrays")
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		sp.end = i + 1
		return sp, nil
	}
	for {
		sp.rows++
		switch {
		case isNull(b, i):
			i += len("null")
		case i < len(b) && b[i] == '[':
			n := bytes.IndexByte(b[i:], ']')
			if n < 0 {
				return sp, syntaxError(b, len(b), "in points")
			}
			if row := b[i+1 : i+n]; skipSpace(row, 0) < len(row) {
				sp.nums += bytes.Count(row, []byte{','}) + 1
			}
			i += n + 1
		default:
			return sp, syntaxError(b, i, "in points, want a row array")
		}
		if i = skipSpace(b, i); i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
			continue
		}
		if i < len(b) && b[i] == ']' {
			sp.end = i + 1
			return sp, nil
		}
		return sp, syntaxError(b, i, "after a row in points")
	}
}

// fillPoints parses v, a value scanPoints measured as sp, and checks each
// row against the JSON number grammar. Numbers convert with
// strconv.ParseFloat, the call encoding/json makes, so every float is
// bit-identical to its decode; a null number stays zero, as it does there.
// The rows are capped sub-slices of one flat array of sp.nums floats.
func fillPoints(v []byte, sp pointsSpan) ([][]float64, error) {
	if isNull(v, 0) {
		return nil, nil
	}
	flat := make([]float64, sp.nums)
	out := make([][]float64, 0, sp.rows)
	off := 0 // flat floats used
	for i := skipSpace(v, 1); v[i] != ']'; i = skipSpace(v, i+1) {
		if isNull(v, i) {
			out = append(out, nil)
			i = skipSpace(v, i+len("null"))
		} else {
			n := 0
			for i = skipSpace(v, i+1); v[i] != ']'; n++ {
				if isNull(v, i) {
					i += len("null")
				} else if j := scanNumber(v, i); j > i {
					f, err := strconv.ParseFloat(string(v[i:j]), 64)
					if err != nil {
						return nil, fmt.Errorf("json: cannot unmarshal number %s into Go value of type float64", v[i:j])
					}
					flat[off+n], i = f, j
				} else {
					return nil, syntaxError(v, i, "in points, want a number")
				}
				switch i = skipSpace(v, i); v[i] {
				case ',':
					i = skipSpace(v, i+1)
					if v[i] == ']' {
						return nil, syntaxError(v, i, "in points, want a number")
					}
				case ']':
				default:
					return nil, syntaxError(v, i, "after a number in points")
				}
			}
			out = append(out, flat[off:off+n:off+n])
			off += n
			i = skipSpace(v, i+1)
		}
		if v[i] == ']' {
			break
		}
	}
	return out, nil
}

// isPointsKey reports whether encoding/json matches the quoted key to a
// field named "points". It matches names exactly or under Unicode simple
// case folding, so "Points", "POINTS", "points" and "poinTſ" all do.
func isPointsKey(quoted []byte) bool {
	name := quoted[1 : len(quoted)-1]
	if bytes.IndexByte(name, '\\') >= 0 {
		var s string
		if json.Unmarshal(quoted, &s) != nil {
			return false
		}
		name = []byte(s)
	}
	const want = "POINTS"
	k := 0
	for len(name) > 0 {
		r, size := utf8.DecodeRune(name)
		if k == len(want) || foldRune(r) != rune(want[k]) {
			return false
		}
		name, k = name[size:], k+1
	}
	return k == len(want)
}

// foldRune returns the smallest rune in r's simple case-folding orbit, the
// canonical form encoding/json compares field names by.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// scanNumber returns the index just past the JSON number starting at b[i]
// (RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?), or i if
// none does.
func scanNumber(b []byte, i int) int {
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return start
	}
	if i < len(b) && b[i] == '.' {
		if j := skipDigits(b, i+1); j > i+1 {
			i = j
		} else {
			return start
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if k := skipDigits(b, j); k > j {
			i = k
		} else {
			return start
		}
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// skipString returns the index just past the string starting at b[i],
// or len(b) if it is unterminated.
func skipString(b []byte, i int) int {
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return len(b)
}

// skipValue returns the index just past the value starting at b[i]. It
// tracks only strings and bracket depth; it does not validate.
func skipValue(b []byte, i int) int {
	switch {
	case i == len(b):
		return i
	case b[i] == '"':
		return skipString(b, i)
	case b[i] == '{' || b[i] == '[':
		for depth := 0; i < len(b); i++ {
			switch b[i] {
			case '"':
				i = skipString(b, i) - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
		return len(b)
	}
	for i < len(b) && !isSpace(b[i]) && b[i] != ',' && b[i] != '}' && b[i] != ']' {
		i++
	}
	return i
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isNull(b []byte, i int) bool { return len(b)-i >= 4 && string(b[i:i+4]) == "null" }

func syntaxError(b []byte, i int, context string) error {
	if i >= len(b) {
		return fmt.Errorf("unexpected end of JSON input %s", context)
	}
	return fmt.Errorf("invalid character %q at offset %d %s", b[i], i, context)
}
