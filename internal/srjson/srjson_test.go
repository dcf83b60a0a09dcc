package srjson

import (
	"bytes"
	"strings"
	"testing"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/rdf"
)

// encodeSelect writes res as a SELECT results document through the
// streaming encoder.
func encodeSelect(res *eval.Result) ([]byte, error) {
	var buf bytes.Buffer
	err := EncodeSelectStream(&buf, res.Vars, func(yield func(eval.Solution, error) bool) {
		for _, sol := range res.Solutions {
			if !yield(sol, nil) {
				return
			}
		}
	}, nil)
	return buf.Bytes(), err
}

func TestSelectRoundTrip(t *testing.T) {
	res := &eval.Result{
		Vars: []string{"a", "b", "c", "d"},
		Solutions: []eval.Solution{
			{
				"a": rdf.NewIRI("http://ex/x"),
				"b": rdf.NewLiteral("plain"),
				"c": rdf.NewTypedLiteral("5", rdf.XSDInteger),
				"d": rdf.NewLangLiteral("chat", "fr"),
			},
			{
				"a": rdf.NewBlank("node1"),
				// b,c,d unbound in this row
			},
		},
	}
	data, err := encodeSelect(res)
	if err != nil {
		t.Fatal(err)
	}
	got, boolean, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if boolean != nil {
		t.Fatal("SELECT decoded as boolean")
	}
	if len(got.Vars) != 4 || len(got.Solutions) != 2 {
		t.Fatalf("shape = %v / %d", got.Vars, len(got.Solutions))
	}
	for k, v := range res.Solutions[0] {
		if got.Solutions[0][k] != v {
			t.Errorf("row0[%s] = %v, want %v", k, got.Solutions[0][k], v)
		}
	}
	if got.Solutions[1].Bound("b") {
		t.Fatal("unbound variable resurfaced")
	}
	if got.Solutions[1]["a"] != rdf.NewBlank("node1") {
		t.Fatalf("bnode = %v", got.Solutions[1]["a"])
	}
}

func TestAskRoundTrip(t *testing.T) {
	for _, want := range []bool{true, false} {
		data, err := EncodeAsk(want)
		if err != nil {
			t.Fatal(err)
		}
		res, b, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if res != nil || b == nil || *b != want {
			t.Fatalf("ask round trip = %v %v", res, b)
		}
	}
}

func TestWireFormatShape(t *testing.T) {
	res := &eval.Result{
		Vars:      []string{"x"},
		Solutions: []eval.Solution{{"x": rdf.NewTypedLiteral("7", rdf.XSDInteger)}},
	}
	data, err := encodeSelect(res)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"head"`, `"vars"`, `"results"`, `"bindings"`, `"typed-literal"`, `"datatype"`} {
		if !strings.Contains(s, want) {
			t.Errorf("wire format missing %s:\n%s", want, s)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		`{invalid json`,
		`{"head":{}}`, // neither results nor boolean
		`{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"alien","value":"?"}}]}}`,
	}
	for i, src := range cases {
		if _, _, err := Decode([]byte(src)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestEncodeRejectsVariables(t *testing.T) {
	res := &eval.Result{
		Vars:      []string{"x"},
		Solutions: []eval.Solution{{"x": rdf.NewVar("oops")}},
	}
	if _, err := encodeSelect(res); err == nil {
		t.Fatal("variable term must not encode")
	}
}

func TestEmptyResults(t *testing.T) {
	res := &eval.Result{Vars: []string{"x"}}
	data, err := encodeSelect(res)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Solutions) != 0 {
		t.Fatalf("expected empty solutions, got %v", got.Solutions)
	}
}
