package turtle

import (
	"io"

	"sparqlrw/internal/rdf"
)

// StreamWriter serialises triples as Turtle one at a time, for HTTP
// handlers that stream CONSTRUCT/DESCRIBE results as they arrive instead
// of materialising the graph. The prefix directives are written up front
// and every triple is emitted on its own line (no subject grouping —
// grouping would require buffering), QName-shrunk through the prefix map.
// The output is valid Turtle; Format remains the pretty, grouped form for
// materialised graphs.
type StreamWriter struct {
	w        io.Writer
	prefixes *rdf.PrefixMap
	wroteAny bool
}

// NewStreamWriter returns a writer over w. prefixes may be nil (full IRIs
// everywhere); the @prefix directives are written lazily before the first
// triple, so an empty stream produces an empty document.
func NewStreamWriter(w io.Writer, prefixes *rdf.PrefixMap) *StreamWriter {
	return &StreamWriter{w: w, prefixes: prefixes}
}

// WriteTriple writes one triple line, emitting the prefix header first
// when this is the stream's first triple.
func (sw *StreamWriter) WriteTriple(t rdf.Triple) error {
	if !sw.wroteAny {
		sw.wroteAny = true
		if sw.prefixes != nil {
			for _, p := range sw.prefixes.Prefixes() {
				ns, _ := sw.prefixes.Namespace(p)
				if _, err := io.WriteString(sw.w, "@prefix "+p+": "+rdf.NewIRI(ns).String()+" .\n"); err != nil {
					return err
				}
			}
		}
	}
	line := formatTerm(t.S, sw.prefixes) + " " + formatVerb(t.P, sw.prefixes) + " " + formatTerm(t.O, sw.prefixes) + " .\n"
	_, err := io.WriteString(sw.w, line)
	return err
}
