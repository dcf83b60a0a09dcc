// Package ntriples reads and writes the line-oriented N-Triples format,
// used for bulk loading generated data sets and for canonical dumps in
// tests and experiments.
package ntriples

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"sparqlrw/internal/lex"
	"sparqlrw/internal/rdf"
)

// Parse reads an N-Triples document. Each line holds one triple terminated
// by '.'; comments (#) and blank lines are skipped.
func Parse(r io.Reader) (rdf.Graph, error) {
	var g rdf.Graph
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("ntriples: line %d: %w", lineNo, err)
		}
		g = append(g, t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ntriples: %w", err)
	}
	return g, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (rdf.Graph, error) {
	return Parse(strings.NewReader(s))
}

func parseLine(line string) (rdf.Triple, error) {
	// Tokenise the whole line first; N-Triples lines are short, and a
	// token slice gives us the one-token lookahead plain literals need.
	// The tokens' values are slices of the line: a term copies what it
	// keeps, so the triple does not pin the line.
	var buf [8]lex.Token // a valid line has at most 7 tokens
	toks := buf[:0]
	lx := lex.New(line)
	for {
		tok := lx.Next()
		if tok.Kind == lex.Illegal {
			return rdf.Triple{}, fmt.Errorf("%s", tok.Val)
		}
		toks = append(toks, tok)
		if tok.Kind == lex.EOF {
			break
		}
	}
	i := 0
	readTerm := func() (rdf.Term, error) {
		tok := toks[i]
		switch tok.Kind {
		case lex.IRIRef:
			i++
			return rdf.NewIRI(strings.Clone(tok.Val)), nil
		case lex.BlankNode:
			i++
			return rdf.NewBlank(strings.Clone(tok.Val)), nil
		case lex.String:
			i++
			val := strings.Clone(tok.Val)
			switch toks[i].Kind {
			case lex.LangTag:
				t := rdf.NewLangLiteral(val, strings.Clone(toks[i].Val))
				i++
				return t, nil
			case lex.HatHat:
				i++
				if toks[i].Kind != lex.IRIRef {
					return rdf.Term{}, fmt.Errorf("expected datatype IRI, found %s", toks[i])
				}
				t := rdf.NewTypedLiteral(val, strings.Clone(toks[i].Val))
				i++
				return t, nil
			}
			return rdf.NewLiteral(val), nil
		default:
			return rdf.Term{}, fmt.Errorf("unexpected token %s", tok)
		}
	}
	s, err := readTerm()
	if err != nil {
		return rdf.Triple{}, err
	}
	if s.IsLiteral() {
		return rdf.Triple{}, fmt.Errorf("literal subject")
	}
	p, err := readTerm()
	if err != nil {
		return rdf.Triple{}, err
	}
	if !p.IsIRI() {
		return rdf.Triple{}, fmt.Errorf("predicate must be an IRI")
	}
	o, err := readTerm()
	if err != nil {
		return rdf.Triple{}, err
	}
	if toks[i].Kind != lex.Dot {
		return rdf.Triple{}, fmt.Errorf("expected '.', found %s", toks[i])
	}
	i++
	if toks[i].Kind != lex.EOF {
		return rdf.Triple{}, fmt.Errorf("trailing tokens after '.'")
	}
	return rdf.Triple{S: s, P: p, O: o}, nil
}

// Write serialises the graph in N-Triples, one triple per line, in the
// graph's order.
func Write(w io.Writer, g rdf.Graph) error {
	bw := bufio.NewWriter(w)
	for _, t := range g {
		if _, err := bw.WriteString(t.String() + " .\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Format returns the N-Triples serialisation as a string.
func Format(g rdf.Graph) string {
	var b strings.Builder
	for _, t := range g {
		b.WriteString(t.String())
		b.WriteString(" .\n")
	}
	return b.String()
}

// FormatTriple returns one triple's N-Triples line (with the trailing
// dot, without the newline), for streaming writers that emit triples as
// they arrive instead of materialising a graph.
func FormatTriple(t rdf.Triple) string {
	return t.String() + " ."
}
