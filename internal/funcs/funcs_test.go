package funcs

import (
	"errors"
	"strings"
	"testing"

	"sparqlrw/internal/coref"
	"sparqlrw/internal/rdf"
)

func paperCoref() *coref.Store {
	s := coref.NewStore()
	s.Add("http://southampton.rkbexplorer.com/id/person-02686",
		"http://kisti.rkbexplorer.com/id/PER_00000000105047")
	s.Add("http://southampton.rkbexplorer.com/id/person-02686",
		"http://dbpedia.org/resource/Nigel_Shadbolt")
	return s
}

func TestSameAsPaperExample(t *testing.T) {
	f := NewSameAs(paperCoref())
	got, err := f.Call([]rdf.Term{
		rdf.NewIRI("http://southampton.rkbexplorer.com/id/person-02686"),
		rdf.NewLiteral(`http://kisti\.rkbexplorer\.com/id/\S*`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != rdf.NewIRI("http://kisti.rkbexplorer.com/id/PER_00000000105047") {
		t.Fatalf("sameas = %v", got)
	}
}

func TestSameAsUnboundPassthrough(t *testing.T) {
	f := NewSameAs(paperCoref())
	v := rdf.NewVar("paper")
	got, err := f.Call([]rdf.Term{v, rdf.NewLiteral(".*")})
	if err != nil || got != v {
		t.Fatalf("unbound passthrough = %v %v", got, err)
	}
	b := rdf.NewBlank("p1")
	got, err = f.Call([]rdf.Term{b, rdf.NewLiteral(".*")})
	if err != nil || got != b {
		t.Fatalf("blank passthrough = %v %v", got, err)
	}
}

func TestSameAsNoEquivalent(t *testing.T) {
	f := NewSameAs(paperCoref())
	_, err := f.Call([]rdf.Term{
		rdf.NewIRI("http://southampton.rkbexplorer.com/id/person-02686"),
		rdf.NewLiteral(`http://acm\.example/\S*`),
	})
	var noEq *ErrNoEquivalent
	if !errors.As(err, &noEq) {
		t.Fatalf("want ErrNoEquivalent, got %v", err)
	}
	if noEq.URI == "" || noEq.Pattern == "" {
		t.Fatalf("error fields empty: %+v", noEq)
	}
}

func TestSameAsErrors(t *testing.T) {
	f := NewSameAs(paperCoref())
	cases := [][]rdf.Term{
		{rdf.NewIRI("http://x")},                               // arity
		{rdf.NewLiteral("lit"), rdf.NewLiteral(".*")},          // non-IRI subject
		{rdf.NewIRI("http://x"), rdf.NewIRI("http://pat")},     // non-literal pattern
		{rdf.NewIRI("http://x"), rdf.NewLiteral("([unclosed")}, // bad regex
	}
	for i, args := range cases {
		if _, err := f.Call(args); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
}

func TestPrefixSwap(t *testing.T) {
	f := NewPrefixSwap()
	got, err := f.Call([]rdf.Term{
		rdf.NewIRI("http://a.example/id/42"),
		rdf.NewLiteral("http://a.example/id/"),
		rdf.NewLiteral("http://b.example/thing/"),
	})
	if err != nil || got.Value != "http://b.example/thing/42" {
		t.Fatalf("prefixSwap = %v %v", got, err)
	}
	if _, err := f.Call([]rdf.Term{
		rdf.NewIRI("http://other/x"),
		rdf.NewLiteral("http://a.example/"),
		rdf.NewLiteral("http://b.example/"),
	}); err == nil {
		t.Fatal("non-matching prefix should error")
	}
	v := rdf.NewVar("x")
	if got, err := f.Call([]rdf.Term{v, rdf.NewLiteral("a"), rdf.NewLiteral("b")}); err != nil || got != v {
		t.Fatal("unbound passthrough failed")
	}
}

func TestNumericConversions(t *testing.T) {
	r := StandardRegistry(paperCoref())
	got, err := r.Call(rdf.MapNS+"kmToMiles", []rdf.Term{rdf.NewInteger(100)})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := got.Float()
	if f < 62.1 || f > 62.2 {
		t.Fatalf("kmToMiles(100) = %v", got)
	}
	got, err = r.Call(rdf.MapNS+"celsiusToFahrenheit", []rdf.Term{rdf.NewInteger(100)})
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := got.Float(); f != 212 {
		t.Fatalf("c2f(100) = %v", got)
	}
	// plain literal holding a number is accepted
	got, err = r.Call(rdf.MapNS+"kmToMiles", []rdf.Term{rdf.NewLiteral("10")})
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := got.Float(); f < 6.2 || f > 6.3 {
		t.Fatalf("kmToMiles(\"10\") = %v", got)
	}
	if _, err := r.Call(rdf.MapNS+"kmToMiles", []rdf.Term{rdf.NewLiteral("NaNsense")}); err == nil {
		t.Fatal("non-numeric literal should error")
	}
}

func TestStringFunctions(t *testing.T) {
	r := StandardRegistry(paperCoref())
	got, _ := r.Call(rdf.MapNS+"toUpper", []rdf.Term{rdf.NewLiteral("abc")})
	if got.Value != "ABC" {
		t.Fatalf("toUpper = %v", got)
	}
	got, _ = r.Call(rdf.MapNS+"trim", []rdf.Term{rdf.NewLiteral("  x ")})
	if got.Value != "x" {
		t.Fatalf("trim = %v", got)
	}
	// language tags survive string transforms
	got, _ = r.Call(rdf.MapNS+"toLower", []rdf.Term{rdf.NewLangLiteral("HI", "en")})
	if got != rdf.NewLangLiteral("hi", "en") {
		t.Fatalf("toLower lang = %v", got)
	}
}

func TestConcat(t *testing.T) {
	r := StandardRegistry(paperCoref())
	got, err := r.Call(rdf.MapNS+"concat", []rdf.Term{
		rdf.NewLiteral("1600"), rdf.NewLiteral("Pennsylvania"), rdf.NewLiteral("Ave"),
	})
	if err != nil || got.Value != "1600 Pennsylvania Ave" {
		t.Fatalf("concat = %v %v", got, err)
	}
	// unbound argument defers
	v := rdf.NewVar("street")
	got, err = r.Call(rdf.MapNS+"concat", []rdf.Term{rdf.NewLiteral("x"), v})
	if err != nil || got != v {
		t.Fatalf("concat defer = %v %v", got, err)
	}
}

func TestRegistryLookupAndIRIs(t *testing.T) {
	r := StandardRegistry(paperCoref())
	if _, ok := r.Lookup(rdf.MapSameAs); !ok {
		t.Fatal("sameas not registered")
	}
	if _, err := r.Call("http://nope/fn", nil); err == nil {
		t.Fatal("unknown function must error")
	}
	if len(r.funcs) < 8 {
		t.Fatalf("registry too small: %d functions", len(r.funcs))
	}
}

func TestResolverAdapter(t *testing.T) {
	r := StandardRegistry(paperCoref())
	res := r.Resolver()
	fn, ok := res(rdf.MapNS + "toUpper")
	if !ok {
		t.Fatal("resolver miss")
	}
	got, err := fn([]rdf.Term{rdf.NewLiteral("x")})
	if err != nil || got.Value != "X" {
		t.Fatalf("resolved call = %v %v", got, err)
	}
	if _, ok := res("http://nope"); ok {
		t.Fatal("resolver false positive")
	}
}

func TestDocsPresent(t *testing.T) {
	r := StandardRegistry(paperCoref())
	for iri, f := range r.funcs {
		if strings.TrimSpace(f.Doc) == "" {
			t.Errorf("function %s lacks documentation", iri)
		}
	}
}
