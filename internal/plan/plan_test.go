package plan

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/voidkb"
	"sparqlrw/internal/workload"
)

// fourDatasetKB registers the AKT/KISTI pair of the paper plus two data
// sets the Figure-1 workload cannot reach: DBpedia (no alignment from
// AKT) and ECS (ditto). Only the first two are voiD-relevant.
func fourDatasetKB(t *testing.T) (*voidkb.KB, *align.KB) {
	t.Helper()
	dsKB := voidkb.NewKB()
	for _, d := range []*voidkb.Dataset{
		{URI: workload.SotonVoidURI, SPARQLEndpoint: "http://soton.endpoint/sparql",
			URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS}},
		{URI: workload.KistiVoidURI, SPARQLEndpoint: "http://kisti.endpoint/sparql",
			URISpace: workload.KistiURIPattern, Vocabularies: []string{rdf.KISTINS}},
		{URI: workload.DBPVoidURI, SPARQLEndpoint: "http://dbpedia.endpoint/sparql",
			URISpace: workload.DBPURIPattern, Vocabularies: []string{rdf.DBONS}},
		{URI: workload.ECSVoidURI, SPARQLEndpoint: "http://ecs.endpoint/sparql",
			URISpace: workload.ECSURIPattern, Vocabularies: []string{rdf.ECSNS}},
	} {
		if err := dsKB.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	alignKB := align.NewKB()
	if err := alignKB.Add(workload.AKT2KISTI()); err != nil {
		t.Fatal(err)
	}
	if err := alignKB.Add(workload.ECS2DBpedia()); err != nil {
		t.Fatal(err)
	}
	return dsKB, alignKB
}

// datasets returns the cover's data sets in dispatch order.
func datasets(sel *Selection) []string {
	var out []string
	for _, t := range sel.Cover {
		out = append(out, t.Dataset)
	}
	return out
}

func TestSourceSelectionPrunesIrrelevantDatasets(t *testing.T) {
	dsKB, alignKB := fourDatasetKB(t)
	p := New(dsKB, alignKB, nil, nil, Options{})
	sel, err := p.Select(sparql.MustParse(workload.Figure1Query(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := datasets(sel)
	if len(got) != 2 {
		t.Fatalf("relevant datasets = %v, want exactly soton+kisti", got)
	}
	want := map[string]bool{workload.SotonVoidURI: true, workload.KistiVoidURI: true}
	for _, ds := range got {
		if !want[ds] {
			t.Fatalf("unexpected dataset %s in plan", ds)
		}
	}
	for i, tp := range sel.Patterns {
		if got, want := sel.Sources[i], p.PatternSources(tp, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("pattern %d sources = %+v, PatternSources says %+v", i, got, want)
		}
	}
	if len(sel.Decisions) != 4 {
		t.Fatalf("decisions = %d, want 4", len(sel.Decisions))
	}
	for _, dec := range sel.Decisions {
		if len(dec.Reasons) == 0 {
			t.Fatalf("decision for %s has no reasons", dec.Dataset)
		}
		switch dec.Dataset {
		case workload.SotonVoidURI:
			if !dec.Relevant || dec.NeedsRewrite {
				t.Fatalf("soton decision = %+v", dec)
			}
		case workload.KistiVoidURI:
			if !dec.Relevant || !dec.NeedsRewrite {
				t.Fatalf("kisti decision = %+v", dec)
			}
		default:
			if dec.Relevant {
				t.Fatalf("%s should be pruned: %+v", dec.Dataset, dec)
			}
		}
	}
	st := p.Stats()
	if st.Plans != 1 || st.DatasetsConsidered != 4 || st.DatasetsPruned != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestForeignBoundTermPrunesNativeDataset(t *testing.T) {
	dsKB := voidkb.NewKB()
	// Two data sets share the AKT vocabulary but hold disjoint URI spaces:
	// a query bound to a Southampton URI cannot be answered by the mirror
	// holding only ECS URIs.
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.SotonVoidURI, SPARQLEndpoint: "http://a/sparql",
		URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS}})
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.ECSVoidURI, SPARQLEndpoint: "http://b/sparql",
		URISpace: workload.ECSURIPattern, Vocabularies: []string{rdf.AKTNS}})
	p := New(dsKB, align.NewKB(), nil, nil, Options{})
	sel, err := p.Select(sparql.MustParse(workload.Figure1Query(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := datasets(sel); len(got) != 1 || got[0] != workload.SotonVoidURI {
		t.Fatalf("datasets = %v, want soton only", got)
	}
	// The same term as a VALUES row or a FILTER constant prunes it too.
	for _, q := range []string{
		"PREFIX akt:<" + rdf.AKTNS + ">\nSELECT ?p WHERE { VALUES ?a { <" + workload.SotonPerson(1).Value + "> } ?p akt:has-author ?a }",
		"PREFIX akt:<" + rdf.AKTNS + ">\nSELECT ?p WHERE { ?p akt:has-author ?a FILTER (?a = <" + workload.SotonPerson(1).Value + ">) }",
	} {
		sel, err := p.Select(sparql.MustParse(q), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := datasets(sel); len(got) != 1 || got[0] != workload.SotonVoidURI {
			t.Fatalf("datasets = %v, want soton only\n%s", got, q)
		}
	}
}

func TestUnboundQueryKeepsAllNativeDatasets(t *testing.T) {
	dsKB, alignKB := fourDatasetKB(t)
	p := New(dsKB, alignKB, nil, nil, Options{})
	// No bound instance terms: URI-space pruning cannot apply; vocabulary
	// selection alone decides.
	sel, err := p.Select(sparql.MustParse(`PREFIX akt:<`+rdf.AKTNS+`>
SELECT ?p ?a WHERE { ?p akt:has-author ?a }`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := datasets(sel); len(got) != 2 {
		t.Fatalf("datasets = %v", got)
	}
}

// valuesQuery is an AKT query seeded with papers 0..n-1 in a VALUES
// block, and the rows' IRIs.
func valuesQuery(n int) (string, []string) {
	var rows []string
	var sb strings.Builder
	sb.WriteString("PREFIX akt:<" + rdf.AKTNS + ">\nSELECT ?paper ?a WHERE {\n  VALUES ?paper {")
	for i := 0; i < n; i++ {
		uri := workload.SotonPaper(i).Value
		rows = append(rows, uri)
		sb.WriteString(" <" + uri + ">")
	}
	sb.WriteString(" }\n  ?paper akt:has-author ?a .\n}")
	return sb.String(), rows
}

func TestValuesShardingSplitsAndRecombines(t *testing.T) {
	text, rows := valuesQuery(10)
	shards, shardVar := ShardQuery(sparql.MustParse(text), 3, 0)
	if len(shards) != 4 { // ceil(10/3)
		t.Fatalf("shards = %d, want 4", len(shards))
	}
	if shardVar != "?paper" {
		t.Fatalf("shardVar = %q", shardVar)
	}
	seen := map[string]bool{}
	for _, sub := range shards {
		for _, uri := range rows {
			if strings.Contains(sparql.Format(sub), "<"+uri+">") {
				if seen[uri] {
					t.Fatalf("row %s appears in two shards", uri)
				}
				seen[uri] = true
			}
		}
	}
	if len(seen) != len(rows) {
		t.Fatalf("shards cover %d/%d rows", len(seen), len(rows))
	}
}

// TestShardingRefusedWhenNotSemanticsPreserving: LIMIT/OFFSET queries
// and VALUES blocks nested under OPTIONAL must not shard — each shard
// would apply the slice locally / flip OPTIONAL bindings, so the union
// would diverge from the unsharded result.
func TestShardingRefusedWhenNotSemanticsPreserving(t *testing.T) {
	values := "VALUES ?p {"
	for i := 0; i < 6; i++ {
		values += " <" + workload.SotonPaper(i).Value + ">"
	}
	values += " }"
	for name, q := range map[string]string{
		"limit": "PREFIX akt:<" + rdf.AKTNS + ">\nSELECT ?a WHERE { " + values +
			" ?p akt:has-author ?a } LIMIT 3",
		"offset": "PREFIX akt:<" + rdf.AKTNS + ">\nSELECT ?a WHERE { " + values +
			" ?p akt:has-author ?a } OFFSET 2",
		"optional": "PREFIX akt:<" + rdf.AKTNS + ">\nSELECT ?a WHERE { ?p akt:has-author ?a OPTIONAL { " +
			values + " } }",
	} {
		if shards, shardVar := ShardQuery(sparql.MustParse(q), 2, 0); len(shards) != 1 || shardVar != "" {
			t.Fatalf("%s query sharded: %d shards, shardVar=%q", name, len(shards), shardVar)
		}
	}
}

func TestShardingDisabled(t *testing.T) {
	q := sparql.MustParse(`PREFIX akt:<` + rdf.AKTNS + `>
SELECT ?a WHERE { VALUES ?p { <http://southampton.rkbexplorer.com/id/paper-00001> <http://southampton.rkbexplorer.com/id/paper-00002> } ?p akt:has-author ?a }`)
	if shards, shardVar := ShardQuery(q, -1, 0); len(shards) != 1 || shards[0] != q || shardVar != "" {
		t.Fatalf("sharding not disabled: %d shards, shardVar=%q", len(shards), shardVar)
	}
}

func TestAdaptiveOrderingAndDeadlines(t *testing.T) {
	dsKB := voidkb.NewKB()
	for _, d := range []struct{ uri, ep string }{
		{"http://a.example/void", "http://a.example/sparql"},
		{"http://b.example/void", "http://b.example/sparql"},
		{"http://c.example/void", "http://c.example/sparql"},
	} {
		_ = dsKB.Add(&voidkb.Dataset{URI: d.uri, SPARQLEndpoint: d.ep,
			Vocabularies: []string{rdf.AKTNS}})
	}
	endpoints := fakeEndpoints{
		"http://a.example/sparql": {p50: 80 * time.Millisecond},
		"http://b.example/sparql": {p50: 5 * time.Millisecond},
		"http://c.example/sparql": {p50: 2 * time.Millisecond, open: true},
	}
	p := New(dsKB, align.NewKB(), nil, endpoints, Options{})
	sel, err := p.Select(sparql.MustParse(`PREFIX akt:<`+rdf.AKTNS+`>
SELECT ?a WHERE { ?p akt:has-author ?a }`), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := datasets(sel)
	want := []string{"http://b.example/void", "http://a.example/void", "http://c.example/void"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", got, want)
		}
	}
	for _, target := range sel.Cover {
		switch target.Endpoint {
		case "http://a.example/sparql": // 8 × 80ms
			if target.Timeout != 640*time.Millisecond {
				t.Fatalf("a deadline = %s", target.Timeout)
			}
		case "http://b.example/sparql": // 8 × 5ms floored at 250ms
			if target.Timeout != 250*time.Millisecond {
				t.Fatalf("b deadline = %s", target.Timeout)
			}
		}
	}
	for _, dec := range sel.Decisions {
		if dec.Endpoint == "http://a.example/sparql" && dec.LatencyMS != 80 {
			t.Fatalf("a decision reports latency %v ms, want 80", dec.LatencyMS)
		}
		if open := dec.Endpoint == "http://c.example/sparql"; open != strings.Contains(strings.Join(dec.Reasons, "; "), "circuit is open") {
			t.Fatalf("%s reasons = %v", dec.Endpoint, dec.Reasons)
		}
	}
}

// fakeEndpoints stands in for the executor's endpoint table.
type fakeEndpoints map[string]struct {
	p50  time.Duration
	open bool
}

func (f fakeEndpoints) Observed(endpoint string) (time.Duration, bool) {
	o := f[endpoint]
	return o.p50, o.open
}

// TestShardResultsRecombine executes every shard of a sharded query over
// a real store and checks the union of shard results equals the unsharded
// result set.
func TestShardResultsRecombine(t *testing.T) {
	u := workload.Generate(workload.Config{Persons: 20, Papers: 40, MaxAuthors: 3, Overlap: 0.5, Seed: 7})
	queryText, _ := valuesQuery(15)

	e := eval.New(u.Southampton)
	base, err := e.Select(sparql.MustParse(queryText))
	if err != nil {
		t.Fatal(err)
	}
	shards, _ := ShardQuery(sparql.MustParse(queryText), 4, 0)
	if len(shards) != 4 { // ceil(15/4)
		t.Fatalf("shards = %d", len(shards))
	}
	union := map[string]bool{}
	for i, sub := range shards {
		res, err := e.Select(sub)
		if err != nil {
			t.Fatalf("shard %d: %v\n%s", i+1, err, sparql.Format(sub))
		}
		for _, sol := range res.Solutions {
			union[sol.Key()] = true
		}
	}
	if len(union) != len(base.Solutions) {
		t.Fatalf("shard union = %d solutions, unsharded = %d", len(union), len(base.Solutions))
	}
	for _, sol := range base.Solutions {
		if !union[sol.Key()] {
			t.Fatalf("solution %v missing from shard union", sol)
		}
	}
}

func TestPlanRejectsNonSelect(t *testing.T) {
	dsKB, alignKB := fourDatasetKB(t)
	p := New(dsKB, alignKB, nil, nil, Options{})
	if _, err := p.Select(sparql.MustParse(`ASK { ?s ?p ?o }`), nil); err == nil {
		t.Fatal("ASK must be rejected")
	}
}
