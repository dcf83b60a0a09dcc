package turtle

import "testing"

// FuzzParseTurtle holds the parser and the serialiser to what the mediator
// leans on when POST /api/alignments hands it a body from outside: parsing
// never panics, whatever parses formats to Turtle that parses again to as
// many triples, and formatting is a fixpoint from there.
func FuzzParseTurtle(f *testing.F) {
	for _, src := range []string{
		`@prefix ex: <http://example.org/> .
ex:alice ex:knows ex:bob , ex:carol ; ex:name "Alice"@en ; a ex:Person .`,
		`PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
BASE <http://example.org/>
<s> <p> "5"^^xsd:integer , -2.5 , 1e3 , true ; <q> ( 1 "two" <three> ) .`,
		`@prefix ex: <http://example.org/> .
[ ex:p ex:o ; ex:q [ ex:r "nested" ] ] .
_:b1 ex:p _:anon1 , [] , () .`,
		`@prefix ex: <http://example.org/> . ex:s ex:p """long
string with "quotes" and \t tab""" ; ex:q 'single'@fr-CA ;; .`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, prefixes, err := Parse(src)
		if err != nil {
			return
		}
		text := Format(g, prefixes)
		g2, prefixes2, err := Parse(text)
		if err != nil {
			t.Fatalf("Format's output does not parse: %v\ninput:  %q\noutput: %q", err, src, text)
		}
		if len(g2) != len(g) {
			t.Fatalf("Format's output parses to %d triples, want %d\ninput:  %q\noutput: %q", len(g2), len(g), src, text)
		}
		if again := Format(g2, prefixes2); again != text {
			t.Fatalf("Format is not a fixpoint\ninput:  %q\nfirst:  %q\nsecond: %q", src, text, again)
		}
	})
}
