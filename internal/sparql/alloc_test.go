package sparql

import (
	"testing"

	"sparqlrw/internal/raceflag"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/workload"
)

// valuesShard is the text of a bound join's VALUES shard of 30 rows, as
// the decomposer formats it: the cross-vocabulary query's citation
// fragment with its ?paper bindings inlined.
func valuesShard() string {
	cross := MustParse(workload.CrossVocabularyQuery(2))
	q := NewQuery(Select)
	q.Prefixes = cross.Prefixes.Clone()
	q.Distinct = true
	q.SelectVars = []string{"paper", "c"}
	values := &InlineData{Vars: []string{"paper"}}
	for j := range 30 {
		values.Rows = append(values.Rows, []rdf.Term{workload.SotonPaper(j)})
	}
	q.Where = &GroupGraphPattern{Elements: []GroupElement{values,
		&BGP{Patterns: []rdf.Triple{{S: rdf.NewVar("paper"), P: rdf.NewIRI(workload.MetricsCitationCount), O: rdf.NewVar("c")}}}}}
	return Format(q)
}

// TestParseAllocations pins what one parse costs on the three texts the
// mediator and its endpoints parse most: the Figure-1 query, the
// cross-vocabulary query and a 30-row VALUES shard. The lexer allocates
// nothing for them, so the count is the query's own structure plus one
// copy of each value it keeps, and a VALUES block's rows share one array
// of cells. The ceilings are the measured figures (33, 34 and 60) plus
// 5 %; while the lexer built every value in a strings.Builder and each row
// had its own slice, the same parses cost 57, 56 and 192.
func TestParseAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, c := range []struct {
		name    string
		src     string
		ceiling float64
	}{
		{"figure-1", figure1, 34},
		{"cross-vocabulary", workload.CrossVocabularyQuery(2), 35},
		{"values-shard", valuesShard(), 63},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := testing.AllocsPerRun(100, func() {
				if _, err := Parse(c.src); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%.0f allocations per parse", got)
			if got > c.ceiling {
				t.Errorf("%.0f allocations per parse, want at most %.0f", got, c.ceiling)
			}
		})
	}
}
