package ntriples

import "testing"

// FuzzParseNTriples holds the parser and the serialiser to a round trip:
// parsing never panics, whatever parses formats to N-Triples that parses
// again to as many triples, and formatting is a fixpoint from there.
func FuzzParseNTriples(f *testing.F) {
	for _, src := range []string{
		`<http://ex/s> <http://ex/p> <http://ex/o> .
<http://ex/s> <http://ex/p> "plain" .
<http://ex/s> <http://ex/p> "tagged"@en-GB .
<http://ex/s> <http://ex/p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b1 <http://ex/p> _:b2 .`,
		"# comment\n\n<http://ex/s> <http://ex/p> \"tab\\there \\\"quoted\\\" \\u00e9\" .\r\n",
		`<http://southampton.rkbexplorer.com/id/person-00001> <http://www.w3.org/2002/07/owl#sameAs> <http://kisti.rkbexplorer.com/id/PER_000000000000105047> .`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ParseString(src)
		if err != nil {
			return
		}
		text := Format(g)
		g2, err := ParseString(text)
		if err != nil {
			t.Fatalf("Format's output does not parse: %v\ninput:  %q\noutput: %q", err, src, text)
		}
		if len(g2) != len(g) {
			t.Fatalf("Format's output parses to %d triples, want %d\ninput:  %q\noutput: %q", len(g2), len(g), src, text)
		}
		if again := Format(g2); again != text {
			t.Fatalf("Format is not a fixpoint\ninput:  %q\nfirst:  %q\nsecond: %q", src, text, again)
		}
	})
}
