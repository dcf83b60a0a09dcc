// Command sparql-cli evaluates a SPARQL query over local RDF files — a
// small debugging aid for the data sets and queries the experiments use.
//
// Usage:
//
//	sparql-cli -data data.ttl [-data more.nt ...] -query q.rq
//	echo 'SELECT * WHERE { ?s ?p ?o } LIMIT 5' | sparql-cli -data data.ttl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/ntriples"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/store"
	"sparqlrw/internal/turtle"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sparql-cli:", err)
		os.Exit(1)
	}
}

func run() error {
	var dataPaths multiFlag
	flag.Var(&dataPaths, "data", "RDF data file (.ttl or .nt); repeatable")
	queryPath := flag.String("query", "-", "query file (- for stdin)")
	flag.Parse()

	if len(dataPaths) == 0 {
		return fmt.Errorf("at least one -data file is required")
	}
	st := store.New()
	for _, path := range dataPaths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var n int
		if strings.HasSuffix(path, ".nt") {
			g, err := ntriples.ParseString(string(raw))
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			n = st.AddGraph(g)
		} else {
			g, _, err := turtle.Parse(string(raw))
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			n = st.AddGraph(g)
		}
		fmt.Fprintf(os.Stderr, "loaded %s: %d triples\n", path, n)
	}

	queryText, err := readInput(*queryPath)
	if err != nil {
		return err
	}
	q, err := sparql.Parse(queryText)
	if err != nil {
		return err
	}
	engine := eval.New(st)
	switch q.Form {
	case sparql.Select:
		res, err := engine.Select(q)
		if err != nil {
			return err
		}
		eval.SortSolutions(res.Solutions)
		printTable(res)
	case sparql.Ask:
		b, err := engine.Ask(q)
		if err != nil {
			return err
		}
		fmt.Println(b)
	case sparql.Construct:
		g, err := engine.Construct(q)
		if err != nil {
			return err
		}
		fmt.Print(ntriples.Format(g.Sort()))
	case sparql.Describe:
		g, err := engine.Describe(q)
		if err != nil {
			return err
		}
		fmt.Print(ntriples.Format(g.Sort()))
	default:
		return fmt.Errorf("unsupported query form %s", q.Form)
	}
	return nil
}

func printTable(res *eval.Result) {
	vars := res.Vars
	if len(vars) == 0 {
		// fall back to the union of bound names
		seen := map[string]bool{}
		for _, s := range res.Solutions {
			for _, v := range s.Vars() {
				if !seen[v] {
					seen[v] = true
					vars = append(vars, v)
				}
			}
		}
		sort.Strings(vars)
	}
	fmt.Println(strings.Join(prefixed(vars), "\t"))
	for _, s := range res.Solutions {
		row := make([]string, len(vars))
		for i, v := range vars {
			if t, ok := s[v]; ok {
				row[i] = t.String()
			} else {
				row[i] = "-"
			}
		}
		fmt.Println(strings.Join(row, "\t"))
	}
	fmt.Fprintf(os.Stderr, "%d solution(s)\n", len(res.Solutions))
}

func prefixed(vars []string) []string {
	out := make([]string, len(vars))
	for i, v := range vars {
		out[i] = "?" + v
	}
	return out
}

func readInput(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}
