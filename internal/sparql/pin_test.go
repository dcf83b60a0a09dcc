package sparql

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"
	"weak"
)

// parseKeeping parses query padded with a 1 MB comment and returns what
// keep takes from the result, with a weak pointer to the padded text.
func parseKeeping(t *testing.T, query string, keep func(*Query) any) (any, weak.Pointer[byte]) {
	src := query + "\n# " + strings.Repeat("x", 1<<20)
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return keep(q), weak.Make(unsafe.StringData(src))
}

// TestParsedTermsDoNotPinSource holds the parser to copying what a query
// keeps: the lexer's values are slices of the query text, and one term
// kept from a parsed query must not keep that text reachable.
func TestParsedTermsDoNotPinSource(t *testing.T) {
	object := func(q *Query) any { return q.Where.Elements[0].(*BGP).Patterns[0].O }
	for _, c := range []struct {
		name  string
		query string
		keep  func(*Query) any
	}{
		{"numeric literal", `SELECT ?s WHERE { ?s <http://ex/p> 5 }`, object},
		{"blank node", `SELECT ?s WHERE { ?s <http://ex/p> _:b1 }`, object},
		{"string", `SELECT ?s WHERE { ?s <http://ex/p> "chat" }`, object},
		{"lang-tagged literal", `SELECT ?s WHERE { ?s <http://ex/p> "chat"@fr }`, object},
		{"typed literal", `SELECT ?s WHERE { ?s <http://ex/p> "5"^^<http://ex/t> }`, object},
		{"IRI", `SELECT ?s WHERE { ?s <http://ex/p> <http://ex/o> }`, object},
		{"variable name", `SELECT ?s WHERE { ?s <http://ex/p> ?o }`, object},
		{"selected variable", `SELECT ?s WHERE { ?s <http://ex/p> ?o }`, func(q *Query) any { return q.SelectVars[0] }},
		{"FILTER constant", `SELECT ?s WHERE { ?s <http://ex/p> ?o FILTER (?o > 5) }`, func(q *Query) any { return q.Where.Elements[1] }},
		{"VALUES cell", `SELECT ?s WHERE { VALUES ?s { <http://ex/s> } }`, func(q *Query) any { return q.Where.Elements[0] }},
		{"builtin call", `SELECT ?s WHERE { ?s <http://ex/p> ?o FILTER ISIRI(?o) }`, func(q *Query) any { return q.Where.Elements[1] }},
		{"prefix binding", `PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:p ?o }`, func(q *Query) any { return q.Prefixes }},
	} {
		t.Run(c.name, func(t *testing.T) {
			kept, src := parseKeeping(t, c.query, c.keep)
			runtime.GC()
			if src.Value() != nil {
				t.Errorf("%#v keeps the query text reachable", kept)
			}
			runtime.KeepAlive(kept)
		})
	}
}
