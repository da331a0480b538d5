package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"

	"repro/histtest/client"
)

// Request decoding. encoding/json, with unknown fields refused and
// nothing but whitespace allowed after the value (decodeJSON), is the
// reference for every JSON request body: it decides accept vs reject,
// the decoded value and the error text. The samples arrays of
// /v1/test, /v1/test/stream and /v1/closeness bodies are almost all of
// their bytes, so decodeRequest first cuts each one out where the
// request type keeps it, scans it with a tight integer loop, and hands
// encoding/json only what is left, with [] in each array's place.
// Whenever the walk meets input it does not fully recognise, it
// decodes the original body with decodeJSON instead. FuzzDecodeBody
// holds the two paths to the same outcome on arbitrary bodies.

// maxBodyPrealloc caps the buffer a body is read into before any of it
// has arrived: Content-Length is only the client's claim.
const maxBodyPrealloc = 1 << 20

// decodeBody reads the whole body under the configured size limit and
// decodes it into into, a pointer to a zero request value. An empty
// body fails with an error that wraps io.EOF.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, into any) error {
	body, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength)
	if limit, over := overLimit(err); over {
		err = bodyTooLarge(limit)
	} else if err == nil {
		err = decodeRequest(body, into)
	}
	if err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// overLimit reports whether err is http.MaxBytesReader's refusal, and
// the limit it enforced.
func overLimit(err error) (int64, bool) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return tooLarge.Limit, true
	}
	return 0, false
}

// bodyTooLarge is the refusal of a body longer than MaxBodyBytes. It
// names the limit and the flag that sets it, where net/http says only
// "request body too large".
func bodyTooLarge(limit int64) error {
	return fmt.Errorf("request body exceeds the %d-byte limit set by histd -max-body", limit)
}

// readBody reads src to its end into one buffer sized from the claimed
// length, up to maxBodyPrealloc; one spare byte lets the final read see
// EOF without growing it.
func readBody(src io.Reader, claimed int64) ([]byte, error) {
	size := int64(512)
	if claimed > 0 {
		size = min(claimed, maxBodyPrealloc) + 1
	}
	body := make([]byte, 0, size)
	for {
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)]
		}
		n, err := src.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err == io.EOF {
			return body, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeRequest decodes body into into, a pointer to a zero request
// value, with the outcome decodeJSON has on the same body.
func decodeRequest(body []byte, into any) error {
	if spliceDecode(body, into) {
		return nil
	}
	return decodeJSON(body, into)
}

// decodeJSON is the reference decoder: one JSON value, unknown fields
// refused, and only JSON whitespace after it.
func decodeJSON(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return err
	}
	if i := skipWS(body, int(dec.InputOffset())); i < len(body) {
		return fmt.Errorf("trailing data at offset %d after the JSON value", i)
	}
	return nil
}

// The object keys the walk acts on, per level of a request type.
var (
	samplesKeys  = []string{"samples"}
	requestsKeys = []string{"requests"}
	sideKeys     = []string{"a", "b"}
)

// spliceDecode is the fast path of decodeRequest. It reports false, with
// into untouched, for a type without samples arrays, for any body the
// walk does not fully recognise, and for any remainder encoding/json
// refuses; decodeJSON then decides on the original bytes.
func spliceDecode(body []byte, into any) bool {
	s := splicer{body: body}
	switch v := into.(type) {
	case *client.TestRequest:
		var samples []int
		var req client.TestRequest
		if !s.object(samplesKeys, func(int) bool { return s.cut(&samples) }) || !s.decodeRest(&req) {
			return false
		}
		req.Samples = samples
		*v = req
	case *client.BatchRequest:
		// One slot per element of requests: the walk visits each once,
		// and requests itself appears at most once.
		var samples [][]int
		var batch client.BatchRequest
		ok := s.object(requestsKeys, func(int) bool {
			return s.array(func(i int) bool {
				samples = append(samples, nil)
				return s.object(samplesKeys, func(int) bool { return s.cut(&samples[i]) })
			})
		})
		if !ok || !s.decodeRest(&batch) {
			return false
		}
		for i, x := range samples {
			batch.Requests[i].Samples = x
		}
		*v = batch
	case *client.ClosenessRequest:
		var sides [2][]int
		var req client.ClosenessRequest
		ok := s.object(sideKeys, func(k int) bool {
			return s.object(samplesKeys, func(int) bool { return s.cut(&sides[k]) })
		})
		if !ok || !s.decodeRest(&req) {
			return false
		}
		req.A.Samples, req.B.Samples = sides[0], sides[1]
		*v = req
	default:
		return false
	}
	return true
}

// splicer walks a request body from its root object, cutting samples
// arrays out of it. Every method reports false when the input is not
// what it expects; the walk then ends and decodeJSON takes over.
type splicer struct {
	body []byte
	i    int    // read offset
	rest []byte // body[:done], each cut array replaced by []
	done int
}

// object walks the object at s.i. A key spelled exactly like keys[k]
// hands its value to field(k); any other value is skipped and left to
// encoding/json. It gives up on a key with an escape, on a key that
// matches one of keys only case-insensitively (encoding/json matches
// field names that way too), and on a key of keys that repeats
// (encoding/json keeps the last one).
func (s *splicer) object(keys []string, field func(k int) bool) bool {
	b := s.body
	if s.i = skipWS(b, s.i); s.i == len(b) || b[s.i] != '{' {
		return false
	}
	if s.i = skipWS(b, s.i+1); s.i < len(b) && b[s.i] == '}' {
		s.i++
		return true
	}
	var seen uint
	for {
		key, ok := s.key()
		if !ok {
			return false
		}
		if s.i = skipWS(b, s.i); s.i == len(b) || b[s.i] != ':' {
			return false
		}
		s.i = skipWS(b, s.i+1)
		k := -1
		for j, name := range keys {
			if strings.EqualFold(string(key), name) {
				if string(key) != name || seen&(1<<j) != 0 {
					return false
				}
				seen |= 1 << j
				k = j
			}
		}
		if k >= 0 {
			ok = field(k)
		} else {
			ok = s.skipValue()
		}
		if !ok {
			return false
		}
		if s.i = skipWS(b, s.i); s.i == len(b) {
			return false
		}
		switch b[s.i] {
		case ',':
			s.i = skipWS(b, s.i+1)
		case '}':
			s.i++
			return true
		default:
			return false
		}
	}
}

// key reads the object key at s.i, refusing one with an escape.
func (s *splicer) key() ([]byte, bool) {
	b := s.body
	if s.i == len(b) || b[s.i] != '"' {
		return nil, false
	}
	n := bytes.IndexByte(b[s.i+1:], '"')
	if n < 0 {
		return nil, false
	}
	key := b[s.i+1 : s.i+1+n]
	if bytes.IndexByte(key, '\\') >= 0 {
		return nil, false
	}
	s.i += n + 2
	return key, true
}

// array walks the array at s.i, handing each element to elem.
func (s *splicer) array(elem func(i int) bool) bool {
	b := s.body
	if s.i == len(b) || b[s.i] != '[' {
		return false
	}
	if s.i = skipWS(b, s.i+1); s.i < len(b) && b[s.i] == ']' {
		s.i++
		return true
	}
	for i := 0; ; i++ {
		if !elem(i) {
			return false
		}
		if s.i = skipWS(b, s.i); s.i == len(b) {
			return false
		}
		switch b[s.i] {
		case ',':
			s.i = skipWS(b, s.i+1)
		case ']':
			s.i++
			return true
		default:
			return false
		}
	}
}

// skipValue skips the value at s.i. It counts brackets rather than
// recursing, and checks only enough to find where the value ends: every
// byte it skips stays in the remainder, where encoding/json checks it.
func (s *splicer) skipValue() bool {
	b, depth := s.body, 0
	for i := s.i; i < len(b); i++ {
		if !structural[b[i]] {
			continue
		}
		switch c := b[i]; {
		case c == '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
			if i >= len(b) {
				return false
			}
		case depth == 0 && (c == ',' || c == '}' || c == ']'):
			s.i = i // the end of a scalar
			return true
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			depth--
		default:
			continue
		}
		if depth == 0 {
			s.i = i + 1
			return true
		}
	}
	return false
}

// cut scans the samples array at s.i into *dst and replaces it by [] in
// the remainder. Every element must be a JSON integer -?(0|[1-9][0-9]*)
// within int range, which encoding/json decodes to the same value; it
// leaves anything else to encoding/json: null, fractions, exponents,
// leading zeros, out-of-range values.
func (s *splicer) cut(dst *[]int) bool {
	b := s.body
	if s.i == len(b) || b[s.i] != '[' {
		return false
	}
	end := bytes.IndexByte(b[s.i:], ']')
	if end < 0 {
		return false
	}
	end += s.i
	a := b[s.i+1 : end] // the elements, to be scanned in full
	i := skipWS(a, 0)
	out := make([]int, 0, bytes.Count(a, []byte{','})+1)
	for i < len(a) {
		neg := a[i] == '-'
		if neg {
			i++
		}
		start := i
		var v uint64
		for i < len(a) {
			d := a[i] - '0'
			if d > 9 {
				break
			}
			v = v*10 + uint64(d)
			i++
		}
		digits := i - start
		if digits == 0 || digits > 19 || digits > 1 && a[start] == '0' {
			return false
		}
		if neg {
			if v > uint64(math.MaxInt)+1 {
				return false
			}
			out = append(out, int(-v))
		} else {
			if v > math.MaxInt {
				return false
			}
			out = append(out, int(v))
		}
		if i = skipWS(a, i); i == len(a) {
			break
		}
		if a[i] != ',' {
			return false
		}
		if i = skipWS(a, i+1); i == len(a) {
			return false // a trailing comma
		}
	}
	s.rest = append(append(s.rest, b[s.done:s.i]...), "[]"...)
	s.i, s.done = end+1, end+1
	*dst = out
	return true
}

// decodeRest decodes the remainder into into, once the root object has
// been walked. Trailing data ends the fast path, so that decodeJSON
// reports it.
func (s *splicer) decodeRest(into any) bool {
	if skipWS(s.body, s.i) != len(s.body) {
		return false
	}
	rest := s.body
	if s.done > 0 {
		rest = append(s.rest, s.body[s.done:]...)
	}
	return decodeJSON(rest, into) == nil
}

// structural marks the bytes skipValue must look at; it steps over the
// rest (digits, letters, whitespace, colons) with one table load each.
var structural = [256]bool{'"': true, '{': true, '[': true, '}': true, ']': true, ',': true}

// skipWS returns the offset of the first byte at or after i that is not
// JSON whitespace.
func skipWS(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}
