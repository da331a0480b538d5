package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/histtest/client"
	"repro/internal/benchhot"
	"repro/internal/dist"
	"repro/internal/intervals"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// referenceDecode is the decoding contract, written with encoding/json
// alone: one value, unknown fields refused, only JSON whitespace after.
func referenceDecode(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return err
	}
	if tail := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(tail) > 0 {
		return fmt.Errorf("trailing data at offset %d after the JSON value", len(body)-len(tail))
	}
	return nil
}

// requestTypes makes a zero value of every type the handlers decode.
var requestTypes = []func() any{
	func() any { return new(client.TestRequest) },
	func() any { return new(client.BatchRequest) },
	func() any { return new(client.ClosenessRequest) },
	func() any { return new(client.HistogramSpec) },
	func() any { return new(client.StreamSpec) },
	func() any { return new(client.StreamTestRequest) },
}

// decodeSeeds are bodies at the edges of the fast path: every hand-off
// to encoding/json the walk makes, and bodies it must take itself.
func decodeSeeds() []string {
	spec := `{"n":16,"cuts":[8],"masses":[0.5,0.5]}`
	deep := strings.Repeat("[", 64) + strings.Repeat("]", 64)
	return []string{
		// A trimmed closeness-replay body, and its one-sample and batch kin.
		`{"a":{"sampler":"s1"},"b":{"samples":[73419,1207,88,40001,99999,0,5]},"n":100000,"k":8,"eps":0.8,"seed":11,"sampler_seed":7,"reps":5}`,
		`{"samples":[3,1,4,1,5,9,2,6],"n":16,"k":2,"eps":0.5,"seed":3}`,
		` {"samples" : [ 3 , 1 ,4 ] ,"n":16 ,"k":2,"eps":0.5}` + "\n\t\r ",
		`{"samples":[],"n":16,"k":2,"eps":0.5}`,
		`{"a":{"samples":[1,2]},"b":{"samples":[3]},"n":16,"k":2,"eps":0.5}`,
		// A batch whose second element carries samples.
		`{"requests":[{"spec":` + spec + `,"k":2,"eps":0.5},{"samples":[1,2,3],"n":16,"k":2,"eps":0.5},{"k":2}]}`,
		`{"requests":[{"samples":[1]},{"samples":[2,2]},{"samples":[3,3,3]}]}`,
		// Keys encoding/json maps to the same field.
		`{"Samples":[1,2],"n":16,"k":2,"eps":0.5}`,
		`{"SAMPLES":[1,2],"n":16,"k":2,"eps":0.5}`,
		`{"samples":[1],"Samples":[2]}`,
		`{"ſamples":[1,2]}`,
		`{"a":{"samples":[1]},"A":{"samples":[2]},"b":{}}`,
		`{"a":{"samples":[1]},"b":{"SAMPLES":[2]}}`,
		`{"Requests":[{"samples":[1]}]}`,
		`{"requests":[{"Samples":[1]}]}`,
		`{"s\u0061mples":[1,2],"n":16,"k":2,"eps":0.5}`,
		`{"a":{"s\u0061mples":[1]},"b":{}}`,
		// Repeated keys: encoding/json keeps the last, merging objects.
		`{"samples":[1,2,3],"samples":[4]}`,
		`{"samples":[1],"samples":null}`,
		`{"a":{"samples":[1]},"a":{"sampler":"s1"}}`,
		`{"requests":[{"samples":[1]}],"requests":[{"k":2},{"samples":[5]}]}`,
		// Elements encoding/json treats differently from an integer scan.
		`{"samples":[1.0]}`, `{"samples":[1e0]}`, `{"samples":[01]}`, `{"samples":[-0]}`,
		`{"samples":[1,]}`, `{"samples":[,1]}`, `{"samples":[1 2]}`, `{"samples":[-]}`, `{"samples":[+1]}`,
		`{"samples":[9223372036854775807,-9223372036854775807]}`,
		`{"samples":[9223372036854775808]}`,
		`{"samples":[-9223372036854775808]}`,
		`{"samples":[-9223372036854775809]}`,
		`{"samples":[18446744073709551616]}`,
		`{"samples":null}`, `{"samples":[null,1]}`, `{"samples":"1,2"}`, `{"samples":{}}`,
		`{"samples":[[1]]}`, `{"samples":[true]}`, `{"samples":[1]`, `{"samples":[1`,
		// Samples where the type keeps none.
		`{"spec":{"n":16,"masses":[1],"samples":[1,2]},"k":2,"eps":0.5}`,
		`{"a":{"spec":{"samples":[1]}},"b":{}}`,
		`{"requests":{"samples":[1]}}`, `{"requests":[[1]]}`, `{"requests":null}`, `{"a":null,"b":[]}`,
		// Deep nesting (TestDecodeBodyBeyondDepthLimit goes deeper).
		`{"samples":[1],"spec":[[[[{"x":[[{}]]}]]]]}`,
		`{"samples":[1],"spec":` + deep + `}`,
		`{"a":{"samples":[2]},"b":{"spec":{"n":` + deep + `}}}`,
		deep,
		// Trailing data, and bodies that end early.
		`{"samples":[1],"n":16,"k":2,"eps":0.5} garbage`,
		`{"samples":[1],"n":16,"k":2,"eps":0.5}{"k":2}`,
		`{"spec":` + spec + `,"k":2,"eps":0.5} x`,
		`{} `, `{}}`, ``, ` `, `null`, `[]`, `"x"`, `{"k":"\"samples\":[1]"}`,
		`{"k":2,"samples":[1]} ` + "\x00",
	}
}

// FuzzDecodeBody holds decodeRequest to the reference: on arbitrary
// bytes, decoded as every type the handlers decode, both must agree on
// accept vs reject, on the error text and on the decoded value.
func FuzzDecodeBody(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecode)
}

// checkDecode decodes body as every request type with decodeRequest and
// with the reference, and fails unless the outcomes match.
func checkDecode(t *testing.T, body []byte) {
	for _, mk := range requestTypes {
		got, want := mk(), mk()
		gotErr := decodeRequest(body, got)
		wantErr := referenceDecode(body, want)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%T from %q: error %v, encoding/json %v", got, body, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%T from %q:\n got %+v\nwant %+v", got, body, got, want)
		}
	}
}

// TestDecodeBodyBeyondDepthLimit: nesting past encoding/json's limit of
// 10000 levels, where the walk skips by counting brackets. These bodies
// are no fuzz seeds: at 20 KB each, the fuzzer spends its time
// minimizing their mutants.
func TestDecodeBodyBeyondDepthLimit(t *testing.T) {
	deep := strings.Repeat("[", 10001) + strings.Repeat("]", 10001)
	for _, body := range []string{`{"samples":[1],"spec":` + deep + `}`, deep, `{"requests":[{"samples":[1]},` + deep + `]}`} {
		checkDecode(t, []byte(body))
	}
}

// TestReadBodyCapsPreallocation: Content-Length is only a claim. A body
// that claims 64 MiB and sends 10 bytes gets at most a 1 MiB buffer, and
// a body longer than its claim is still read whole.
func TestReadBodyCapsPreallocation(t *testing.T) {
	body, err := readBody(strings.NewReader("0123456789"), 64<<20)
	if err != nil || string(body) != "0123456789" || cap(body) > maxBodyPrealloc+1 {
		t.Fatalf("claimed 64 MiB, sent 10 bytes: %q (cap %d), %v", body, cap(body), err)
	}
	long := strings.Repeat("x", 3000)
	for _, claimed := range []int64{-1, 0, 10, 3000} {
		if body, err := readBody(strings.NewReader(long), claimed); err != nil || string(body) != long {
			t.Fatalf("claimed %d, sent 3000 bytes: read %d, %v", claimed, len(body), err)
		}
	}
}

// TestSpliceDecodeTakesFastPath: well-formed sample-bearing bodies are
// decoded by the splice walk itself, not handed to encoding/json.
func TestSpliceDecodeTakesFastPath(t *testing.T) {
	for _, tc := range []struct {
		body string
		into any
	}{
		{`{"samples":[3,1,4],"n":16,"k":2,"eps":0.5}`, new(client.TestRequest)},
		{`{"spec":{"n":16,"masses":[1]},"k":2,"eps":0.5}`, new(client.TestRequest)},
		{`{"requests":[{"k":2},{"samples":[1,-0,2]}]}`, new(client.BatchRequest)},
		{`{"a":{"sampler":"s1"},"b":{"samples":[0, 9223372036854775807]},"k":2,"eps":0.5}`, new(client.ClosenessRequest)},
	} {
		if !spliceDecode([]byte(tc.body), tc.into) {
			t.Errorf("%T %s: handed to encoding/json", tc.into, tc.body)
		}
	}
}

// decodeBenchBodies builds the two served bodies of the benchmark
// workloads: closeness-replay (a registered sampler vs a 16384-sample
// dataset over n = 10⁵) and cdkl-inline (an inline 1024-bucket spec over
// n = 2²⁰).
func decodeBenchBodies() map[string]any {
	r := rng.New(42)
	ref := benchhot.EightHistogram(100_000)
	cl := client.ClosenessRequest{A: client.ClosenessSide{Sampler: "s1"}, N: 100_000, K: 8, Eps: 0.8,
		Seed: r.Uint64(), SamplerSeed: r.Uint64(), Reps: 5}
	src := oracle.NewSampler(ref, rng.New(0)).Fork(r)
	cl.B.Samples = make([]int, 16384)
	for j := range cl.B.Samples {
		cl.B.Samples[j] = src.Draw()
	}

	const n = 1 << 20
	flat := dist.Flatten(benchhot.EightHistogram(n), intervals.EquiWidth(n, 1024))
	spec := client.HistogramSpec{N: n}
	for j, p := range flat.Pieces() {
		if j > 0 {
			spec.Cuts = append(spec.Cuts, p.Iv.Lo)
		}
		spec.Masses = append(spec.Masses, p.Mass)
	}
	tr := client.TestRequest{Spec: &spec, K: 8, Eps: 0.8, Seed: r.Uint64(), SamplerSeed: r.Uint64(),
		CountStrategy: "closed-form", Engine: "cdkl22"}
	return map[string]any{"closeness-replay": &cl, "cdkl-inline": &tr}
}

// BenchmarkDecodeBody times decodeRequest beside the encoding/json
// reference on the closeness-replay and cdkl-inline bodies.
func BenchmarkDecodeBody(b *testing.B) {
	bodies := decodeBenchBodies()
	for _, name := range []string{"closeness-replay", "cdkl-inline"} {
		req := bodies[name]
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		typ := reflect.TypeOf(req).Elem()
		for _, dec := range []struct {
			name   string
			decode func([]byte, any) error
		}{{"splice", decodeRequest}, {"encoding-json", decodeJSON}} {
			b.Run(name+"/"+dec.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(body)))
				for range b.N {
					if err := dec.decode(body, reflect.New(typ).Interface()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
