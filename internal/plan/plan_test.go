package plan

import (
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

func TestSourceSelectionPrunesIrrelevantDatasets(t *testing.T) {
	dsKB, alignKB := fourDatasetKB(t)
	p := New(dsKB, alignKB, nil, Options{})
	pl, err := p.Plan(sparql.MustParse(workload.Figure1Query(1)), rdf.AKTNS, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := pl.Datasets()
	if len(got) != 2 {
		t.Fatalf("relevant datasets = %v, want exactly soton+kisti", got)
	}
	want := map[string]bool{workload.SotonVoidURI: true, workload.KistiVoidURI: true}
	for _, ds := range got {
		if !want[ds] {
			t.Fatalf("unexpected dataset %s in plan", ds)
		}
	}
	if len(pl.Decisions) != 4 {
		t.Fatalf("decisions = %d, want 4", len(pl.Decisions))
	}
	for _, dec := range pl.Decisions {
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
	if st.Plans != 1 || st.DatasetsConsidered != 4 || st.DatasetsPruned != 2 || st.SubQueries != 2 {
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
	p := New(dsKB, align.NewKB(), nil, Options{})
	pl, err := p.Plan(sparql.MustParse(workload.Figure1Query(1)), rdf.AKTNS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Datasets(); len(got) != 1 || got[0] != workload.SotonVoidURI {
		t.Fatalf("datasets = %v, want soton only", got)
	}
}

func TestUnboundQueryKeepsAllNativeDatasets(t *testing.T) {
	dsKB, alignKB := fourDatasetKB(t)
	p := New(dsKB, alignKB, nil, Options{})
	// No bound instance terms: URI-space pruning cannot apply; vocabulary
	// selection alone decides.
	pl, err := p.Plan(sparql.MustParse(`PREFIX akt:<`+rdf.AKTNS+`>
SELECT ?p ?a WHERE { ?p akt:has-author ?a }`), rdf.AKTNS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Datasets(); len(got) != 2 {
		t.Fatalf("datasets = %v", got)
	}
}

func TestValuesShardingSplitsAndRecombines(t *testing.T) {
	dsKB := voidkb.NewKB()
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.SotonVoidURI, SPARQLEndpoint: "http://a/sparql",
		URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS}})
	p := New(dsKB, align.NewKB(), nil, Options{ValuesBatch: 3})

	var rows []string
	var sb strings.Builder
	sb.WriteString("PREFIX akt:<" + rdf.AKTNS + ">\nSELECT ?a WHERE {\n  VALUES ?paper {")
	for i := 0; i < 10; i++ {
		uri := workload.SotonPaper(i).Value
		rows = append(rows, uri)
		sb.WriteString(" <" + uri + ">")
	}
	sb.WriteString(" }\n  ?paper akt:has-author ?a .\n}")

	pl, err := p.Plan(sparql.MustParse(sb.String()), rdf.AKTNS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Subs) != 4 { // ceil(10/3)
		t.Fatalf("shards = %d, want 4", len(pl.Subs))
	}
	if pl.ShardVar != "?paper" {
		t.Fatalf("shardVar = %q", pl.ShardVar)
	}
	seen := map[string]bool{}
	for i, sub := range pl.Subs {
		if sub.Shard != i+1 || sub.Shards != 4 {
			t.Fatalf("shard numbering = %d/%d at %d", sub.Shard, sub.Shards, i)
		}
		for _, uri := range rows {
			if strings.Contains(sparql.Format(sub.Query), "<"+uri+">") {
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
	if st := p.Stats(); st.ValuesShards != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestValuesShardingRespectsMaxShards(t *testing.T) {
	dsKB := voidkb.NewKB()
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.SotonVoidURI, SPARQLEndpoint: "http://a/sparql",
		URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS}})
	p := New(dsKB, align.NewKB(), nil, Options{ValuesBatch: 1, MaxShards: 2})
	var sb strings.Builder
	sb.WriteString("PREFIX akt:<" + rdf.AKTNS + ">\nSELECT ?a WHERE { VALUES ?p {")
	for i := 0; i < 9; i++ {
		sb.WriteString(" <" + workload.SotonPaper(i).Value + ">")
	}
	sb.WriteString(" } ?p akt:has-author ?a }")
	pl, err := p.Plan(sparql.MustParse(sb.String()), rdf.AKTNS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Subs) != 2 {
		t.Fatalf("shards = %d, want 2 (capped)", len(pl.Subs))
	}
}

// TestShardingRefusedWhenNotSemanticsPreserving: LIMIT/OFFSET queries
// and VALUES blocks nested under OPTIONAL must not shard — each shard
// would apply the slice locally / flip OPTIONAL bindings, so the union
// would diverge from the unsharded result.
func TestShardingRefusedWhenNotSemanticsPreserving(t *testing.T) {
	dsKB := voidkb.NewKB()
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.SotonVoidURI, SPARQLEndpoint: "http://a/sparql",
		URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS}})
	p := New(dsKB, align.NewKB(), nil, Options{ValuesBatch: 2})
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
		pl, err := p.Plan(sparql.MustParse(q), rdf.AKTNS, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(pl.Subs) != 1 || pl.ShardVar != "" {
			t.Fatalf("%s query sharded: %d subs, shardVar=%q", name, len(pl.Subs), pl.ShardVar)
		}
	}
}

func TestShardingDisabled(t *testing.T) {
	dsKB := voidkb.NewKB()
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.SotonVoidURI, SPARQLEndpoint: "http://a/sparql",
		URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS}})
	p := New(dsKB, align.NewKB(), nil, Options{ValuesBatch: -1})
	pl, err := p.Plan(sparql.MustParse(`PREFIX akt:<`+rdf.AKTNS+`>
SELECT ?a WHERE { VALUES ?p { <http://southampton.rkbexplorer.com/id/paper-00001> <http://southampton.rkbexplorer.com/id/paper-00002> } ?p akt:has-author ?a }`), rdf.AKTNS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Subs) != 1 || pl.ShardVar != "" {
		t.Fatalf("sharding not disabled: %d subs, shardVar=%q", len(pl.Subs), pl.ShardVar)
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
	p := New(dsKB, align.NewKB(), endpoints, Options{})
	pl, err := p.Plan(sparql.MustParse(`PREFIX akt:<`+rdf.AKTNS+`>
SELECT ?a WHERE { ?p akt:has-author ?a }`), rdf.AKTNS, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := pl.Datasets()
	want := []string{"http://b.example/void", "http://a.example/void", "http://c.example/void"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", got, want)
		}
	}
	for _, sub := range pl.Subs {
		switch sub.Endpoint {
		case "http://a.example/sparql": // 8 × 80ms
			if sub.Timeout != 640*time.Millisecond {
				t.Fatalf("a deadline = %s", sub.Timeout)
			}
		case "http://b.example/sparql": // 8 × 5ms floored at 250ms
			if sub.Timeout != 250*time.Millisecond {
				t.Fatalf("b deadline = %s", sub.Timeout)
			}
		}
	}
	for _, dec := range pl.Decisions {
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

// TestShardResultsRecombine executes every shard of a sharded plan over a
// real store and checks the union of shard results equals the unsharded
// result set.
func TestShardResultsRecombine(t *testing.T) {
	u := workload.Generate(workload.Config{Persons: 20, Papers: 40, MaxAuthors: 3, Overlap: 0.5, Seed: 7})
	dsKB := voidkb.NewKB()
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.SotonVoidURI, SPARQLEndpoint: "http://a/sparql",
		URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS}})
	p := New(dsKB, align.NewKB(), nil, Options{ValuesBatch: 4})

	var sb strings.Builder
	sb.WriteString("PREFIX akt:<" + rdf.AKTNS + ">\nSELECT ?paper ?a WHERE {\n  VALUES ?paper {")
	for i := 0; i < 15; i++ {
		sb.WriteString(" <" + workload.SotonPaper(i).Value + ">")
	}
	sb.WriteString(" }\n  ?paper akt:has-author ?a .\n}")
	queryText := sb.String()

	e := eval.New(u.Southampton)
	base, err := e.Select(sparql.MustParse(queryText))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := p.Plan(sparql.MustParse(queryText), rdf.AKTNS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Subs) != 4 { // ceil(15/4)
		t.Fatalf("shards = %d", len(pl.Subs))
	}
	union := map[string]bool{}
	for _, sub := range pl.Subs {
		res, err := e.Select(sub.Query)
		if err != nil {
			t.Fatalf("shard %d: %v\n%s", sub.Shard, err, sparql.Format(sub.Query))
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
	p := New(dsKB, alignKB, nil, Options{})
	if _, err := p.Plan(sparql.MustParse(`ASK { ?s ?p ?o }`), rdf.AKTNS, nil); err == nil {
		t.Fatal("ASK must be rejected")
	}
}
