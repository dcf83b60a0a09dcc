package turtle

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"
	"weak"

	"sparqlrw/internal/rdf"
)

// parseKeeping parses doc padded with a 1 MB comment and returns what
// keep takes from the result, with a weak pointer to the padded text.
func parseKeeping(t *testing.T, doc string, keep func(rdf.Graph, *rdf.PrefixMap) any) (any, weak.Pointer[byte]) {
	src := doc + "\n# " + strings.Repeat("x", 1<<20)
	g, pm, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return keep(g, pm), weak.Make(unsafe.StringData(src))
}

// TestParsedTermsDoNotPinSource holds the parser to copying what a graph
// keeps: the lexer's values are slices of the document, and one term kept
// from a parsed document must not keep the document reachable.
func TestParsedTermsDoNotPinSource(t *testing.T) {
	object := func(g rdf.Graph, _ *rdf.PrefixMap) any { return g[0].O }
	for _, c := range []struct {
		name string
		doc  string
		keep func(rdf.Graph, *rdf.PrefixMap) any
	}{
		{"numeric literal", `<http://ex/s> <http://ex/p> 5 .`, object},
		{"decimal literal", `<http://ex/s> <http://ex/p> +2.5 .`, object},
		{"blank node", `<http://ex/s> <http://ex/p> _:b1 .`, object},
		{"string", `<http://ex/s> <http://ex/p> "chat" .`, object},
		{"lang-tagged literal", `<http://ex/s> <http://ex/p> "chat"@fr .`, object},
		{"typed literal", `<http://ex/s> <http://ex/p> "5"^^<http://ex/t> .`, object},
		{"IRI", `<http://ex/s> <http://ex/p> <http://ex/o> .`, object},
		{"boolean", `<http://ex/s> <http://ex/p> true .`, object},
		{"prefix binding", `@prefix ex: <http://ex/> . ex:s ex:p ex:o .`, func(_ rdf.Graph, pm *rdf.PrefixMap) any { return pm }},
		{"base", `@base <http://ex/> . <s> <p> <o> .`, func(_ rdf.Graph, pm *rdf.PrefixMap) any { return pm }},
	} {
		t.Run(c.name, func(t *testing.T) {
			kept, src := parseKeeping(t, c.doc, c.keep)
			runtime.GC()
			if src.Value() != nil {
				t.Errorf("%#v keeps the document reachable", kept)
			}
			runtime.KeepAlive(kept)
		})
	}
}
