package ntriples

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"
	"weak"

	"sparqlrw/internal/rdf"
)

// TestParsedTermsDoNotPinSource holds the line parser to copying what a
// triple keeps: the lexer's values are slices of the line, and one term
// kept from a parsed line must not keep the line reachable.
func TestParsedTermsDoNotPinSource(t *testing.T) {
	for _, c := range []struct {
		name string
		line string
		keep func(rdf.Triple) rdf.Term
	}{
		{"IRI", `<http://ex/s> <http://ex/p> <http://ex/o> .`, func(tr rdf.Triple) rdf.Term { return tr.O }},
		{"blank node", `_:b1 <http://ex/p> <http://ex/o> .`, func(tr rdf.Triple) rdf.Term { return tr.S }},
		{"string", `<http://ex/s> <http://ex/p> "chat" .`, func(tr rdf.Triple) rdf.Term { return tr.O }},
		{"lang-tagged literal", `<http://ex/s> <http://ex/p> "chat"@fr .`, func(tr rdf.Triple) rdf.Term { return tr.O }},
		{"typed literal", `<http://ex/s> <http://ex/p> "5"^^<http://ex/t> .`, func(tr rdf.Triple) rdf.Term { return tr.O }},
	} {
		t.Run(c.name, func(t *testing.T) {
			kept, src := parseKeeping(t, c.line, c.keep)
			runtime.GC()
			if src.Value() != nil {
				t.Errorf("%#v keeps the line reachable", kept)
			}
			runtime.KeepAlive(kept)
		})
	}
}

// parseKeeping parses line padded with a 1 MB comment and returns the term
// keep takes from the triple, with a weak pointer to the padded line.
func parseKeeping(t *testing.T, line string, keep func(rdf.Triple) rdf.Term) (rdf.Term, weak.Pointer[byte]) {
	src := line + " # " + strings.Repeat("x", 1<<20)
	tr, err := parseLine(src)
	if err != nil {
		t.Fatal(err)
	}
	return keep(tr), weak.Make(unsafe.StringData(src))
}
