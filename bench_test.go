package sparqlrw

// One Go benchmark per experiment of the paper's reproduction (E1–E10)
// plus the component benchmarks of later PRs; `go test -bench=. -benchmem`
// runs them. The end-to-end record is separate: `go run ./bench` drives
// the /sparql workloads and writes it.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/core"
	"sparqlrw/internal/coref"
	"sparqlrw/internal/decompose"
	"sparqlrw/internal/endpoint"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/funcs"
	"sparqlrw/internal/mediate"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/reason"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/store"
	"sparqlrw/internal/view"
	"sparqlrw/internal/voidkb"
	"sparqlrw/internal/workload"
)

const figure1Text = `PREFIX id:<http://southampton.rkbexplorer.com/id/>
PREFIX akt:<http://www.aktors.org/ontology/portal#>
SELECT DISTINCT ?a WHERE {
  ?paper akt:has-author id:person-02686 .
  ?paper akt:has-author ?a .
  FILTER (!(?a = id:person-02686 ))
}`

func paperRewriter() *core.Rewriter {
	cs := coref.NewStore()
	cs.Add("http://southampton.rkbexplorer.com/id/person-02686",
		"http://kisti.rkbexplorer.com/id/PER_00000000105047")
	return core.New(workload.AKT2KISTI().Alignments, funcs.StandardRegistry(cs))
}

// BenchmarkE1_ParseFigure1 — E1: the Figure 1 query parses.
func BenchmarkE1_ParseFigure1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sparql.Parse(figure1Text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2_RewriteFigure1 — E2/E3: the §3.3.2 worked example rewrite.
func BenchmarkE2_RewriteFigure1(b *testing.B) {
	rw := paperRewriter()
	q := sparql.MustParse(figure1Text)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rw.RewriteQuery(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4_AlignmentKBLoad — E4: the 24+42 alignment KB round-trips
// through its reified RDF representation.
func BenchmarkE4_AlignmentKBLoad(b *testing.B) {
	ttl := align.FormatTurtle([]*align.OntologyAlignment{workload.AKT2KISTI(), workload.ECS2DBpedia()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oas, _, err := align.ParseTurtle(ttl)
		if err != nil {
			b.Fatal(err)
		}
		if len(oas) != 2 {
			b.Fatal("alignment count")
		}
	}
}

// benchSelect drains one federated SELECT into the buffered shape the
// benchmarks assert on.
func benchSelect(m *mediate.Mediator, query string, targets []string) (*mediate.FederatedResult, error) {
	res, err := m.Query(context.Background(), mediate.QueryRequest{
		Query: query, Targets: targets,
	})
	if err != nil {
		return nil, err
	}
	return res.Bindings().Collect()
}

func benchStack(b *testing.B) (*workload.Universe, *mediate.Mediator) {
	b.Helper()
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 50, 150
	u := workload.Generate(cfg)
	soton := httptest.NewServer(endpoint.NewServer("southampton", u.Southampton))
	b.Cleanup(soton.Close)
	kisti := httptest.NewServer(endpoint.NewServer("kisti", u.KISTI))
	b.Cleanup(kisti.Close)
	dsKB := voidkb.NewKB()
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.SotonVoidURI, SPARQLEndpoint: soton.URL,
		URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS}})
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.KistiVoidURI, SPARQLEndpoint: kisti.URL,
		URISpace: workload.KistiURIPattern, Vocabularies: []string{rdf.KISTINS}})
	alignKB := align.NewKB()
	_ = alignKB.Add(workload.AKT2KISTI())
	m := mediate.New(dsKB, alignKB, u.Coref, mediate.WithRewriteFilters(true))
	return u, m
}

// BenchmarkE5_MediatorEndToEnd — E5: rewrite + federated execution over
// HTTP against both endpoints.
func BenchmarkE5_MediatorEndToEnd(b *testing.B) {
	_, m := benchStack(b)
	targets := []string{workload.SotonVoidURI, workload.KistiVoidURI}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := workload.Figure1Query(i % 50)
		if _, err := benchSelect(m, q, targets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6_FederatedRecall — E6: the recall experiment loop (source
// alone vs both repositories).
func BenchmarkE6_FederatedRecall(b *testing.B) {
	_, m := benchStack(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := workload.Figure1Query(i % 50)
		so, err := benchSelect(m, q, []string{workload.SotonVoidURI})
		if err != nil {
			b.Fatal(err)
		}
		fed, err := benchSelect(m, q,
			[]string{workload.SotonVoidURI, workload.KistiVoidURI})
		if err != nil {
			b.Fatal(err)
		}
		if len(fed.Solutions) < len(so.Solutions) {
			b.Fatal("federation lost answers")
		}
	}
}

// BenchmarkFederation_SequentialVsConcurrent — the federation executor's
// concurrent fan-out against a sequential baseline (worker pool of 1)
// over four simulated endpoints, each with injected network latency: the
// regime the paper's deployed architecture runs in, where querying all
// repositories sequentially pays every endpoint's round trip in series.
func BenchmarkFederation_SequentialVsConcurrent(b *testing.B) {
	const injectedLatency = 2 * time.Millisecond
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 50, 150
	u := workload.Generate(cfg)
	slow := func(name string, st *store.Store) *httptest.Server {
		h := endpoint.NewServer(name, st)
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(injectedLatency)
			h.ServeHTTP(w, r)
		}))
	}
	soton := slow("southampton", u.Southampton)
	b.Cleanup(soton.Close)
	kisti := slow("kisti", u.KISTI)
	b.Cleanup(kisti.Close)
	mirror1 := slow("mirror1", u.Southampton)
	b.Cleanup(mirror1.Close)
	mirror2 := slow("mirror2", u.Southampton)
	b.Cleanup(mirror2.Close)

	dsKB := voidkb.NewKB()
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.SotonVoidURI, SPARQLEndpoint: soton.URL,
		URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS}})
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.KistiVoidURI, SPARQLEndpoint: kisti.URL,
		URISpace: workload.KistiURIPattern, Vocabularies: []string{rdf.KISTINS}})
	_ = dsKB.Add(&voidkb.Dataset{URI: "http://mirror1.example/void", SPARQLEndpoint: mirror1.URL,
		URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS}})
	_ = dsKB.Add(&voidkb.Dataset{URI: "http://mirror2.example/void", SPARQLEndpoint: mirror2.URL,
		URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS}})
	alignKB := align.NewKB()
	_ = alignKB.Add(workload.AKT2KISTI())
	targets := []string{workload.SotonVoidURI, workload.KistiVoidURI,
		"http://mirror1.example/void", "http://mirror2.example/void"}

	for _, mode := range []struct {
		name        string
		concurrency int
	}{{"Sequential", 1}, {"Concurrent", 8}} {
		b.Run(mode.name, func(b *testing.B) {
			m := mediate.New(dsKB, alignKB, u.Coref,
				mediate.WithRewriteFilters(true),
				mediate.WithFederation(federate.Options{Concurrency: mode.concurrency}))
			b.Cleanup(m.Close)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := workload.Figure1Query(i % 50)
				fr, err := benchSelect(m, q, targets)
				if err != nil {
					b.Fatal(err)
				}
				for _, da := range fr.PerDataset {
					if da.Err != nil {
						b.Fatal(da.Err)
					}
				}
			}
		})
	}
}

// BenchmarkStreamingVsBuffered — time to first solution over four
// endpoints of which one is slow: the buffered Collect path must
// wait for the slowest repository before the caller sees anything, while
// the streaming Query path hands over the first merged solution as soon
// as a fast endpoint yields it (and tears the slow request down on
// Close). ns/op is the time-to-first-solution.
func BenchmarkStreamingVsBuffered(b *testing.B) {
	const fastLatency = 1 * time.Millisecond
	const slowLatency = 25 * time.Millisecond
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 50, 150
	u := workload.Generate(cfg)
	delayed := func(name string, st *store.Store, d time.Duration) *httptest.Server {
		h := endpoint.NewServer(name, st)
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(d)
			h.ServeHTTP(w, r)
		}))
	}
	var targets []string
	dsKB := voidkb.NewKB()
	for i, d := range []time.Duration{fastLatency, fastLatency, fastLatency, slowLatency} {
		srv := delayed(fmt.Sprintf("replica%d", i), u.Southampton, d)
		b.Cleanup(srv.Close)
		uri := fmt.Sprintf("http://replica%d.example/void", i)
		_ = dsKB.Add(&voidkb.Dataset{URI: uri, SPARQLEndpoint: srv.URL,
			URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS}})
		targets = append(targets, uri)
	}
	alignKB := align.NewKB()
	_ = alignKB.Add(workload.AKT2KISTI())

	b.Run("Buffered", func(b *testing.B) {
		m := mediate.New(dsKB, alignKB, u.Coref, mediate.WithRewriteFilters(true))
		b.Cleanup(m.Close)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fr, err := benchSelect(m, workload.Figure1Query(i%50), targets)
			if err != nil {
				b.Fatal(err)
			}
			if len(fr.Solutions) == 0 {
				b.Fatal("no solutions")
			}
			_ = fr.Solutions[0] // first solution available only now
		}
	})
	b.Run("Streaming", func(b *testing.B) {
		m := mediate.New(dsKB, alignKB, u.Coref, mediate.WithRewriteFilters(true))
		b.Cleanup(m.Close)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := m.Query(context.Background(), mediate.QueryRequest{
				Query: workload.Figure1Query(i % 50), Targets: targets,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := res.Bindings().Next(); err != nil {
				b.Fatal(err)
			}
			// First solution in hand; abandon the slow remainder.
			res.Close()
		}
	})
}

// BenchmarkPlanner_PlannedVsUnplanned — the voiD-driven planner against
// blind fan-out on the Figure-1 workload: four repositories of which only
// two are voiD-relevant (DBpedia and ECS stand-ins speak vocabularies no
// alignment connects to AKT). Unplanned federation pays all four round
// trips; the planner dispatches exactly the two relevant sub-queries.
// The rt/op metric counts endpoint round trips per federated query.
func BenchmarkPlanner_PlannedVsUnplanned(b *testing.B) {
	const injectedLatency = 2 * time.Millisecond
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 50, 150
	u := workload.Generate(cfg)
	var roundTrips atomic.Int64
	slow := func(name string, st *store.Store) *httptest.Server {
		h := endpoint.NewServer(name, st)
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			roundTrips.Add(1)
			time.Sleep(injectedLatency)
			h.ServeHTTP(w, r)
		}))
	}
	soton := slow("southampton", u.Southampton)
	b.Cleanup(soton.Close)
	kisti := slow("kisti", u.KISTI)
	b.Cleanup(kisti.Close)
	dbp := slow("dbpedia", store.New())
	b.Cleanup(dbp.Close)
	ecs := slow("ecs", store.New())
	b.Cleanup(ecs.Close)

	dsKB := voidkb.NewKB()
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.SotonVoidURI, SPARQLEndpoint: soton.URL,
		URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS}})
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.KistiVoidURI, SPARQLEndpoint: kisti.URL,
		URISpace: workload.KistiURIPattern, Vocabularies: []string{rdf.KISTINS}})
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.DBPVoidURI, SPARQLEndpoint: dbp.URL,
		URISpace: workload.DBPURIPattern, Vocabularies: []string{rdf.DBONS}})
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.ECSVoidURI, SPARQLEndpoint: ecs.URL,
		URISpace: workload.ECSURIPattern, Vocabularies: []string{rdf.ECSNS}})
	alignKB := align.NewKB()
	_ = alignKB.Add(workload.AKT2KISTI())
	_ = alignKB.Add(workload.ECS2DBpedia())
	allTargets := []string{workload.SotonVoidURI, workload.KistiVoidURI,
		workload.DBPVoidURI, workload.ECSVoidURI}

	for _, mode := range []struct {
		name    string
		targets []string // nil = planner-selected
	}{{"Unplanned", allTargets}, {"Planned", nil}} {
		b.Run(mode.name, func(b *testing.B) {
			m := mediate.New(dsKB, alignKB, u.Coref, mediate.WithRewriteFilters(true))
			b.Cleanup(m.Close) // detach KB hooks; the KBs are shared across sub-benchmarks
			roundTrips.Store(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := workload.Figure1Query(i % 50)
				fr, err := benchSelect(m, q, mode.targets)
				if err != nil {
					b.Fatal(err)
				}
				for _, da := range fr.PerDataset {
					if da.Err != nil {
						b.Fatal(da.Err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(roundTrips.Load())/float64(b.N), "rt/op")
		})
	}
}

// BenchmarkDecomposedVsBroadcast — the per-BGP decomposition layer on a
// cross-vocabulary workload: the AKT data and the citation metrics live
// in different repositories with no alignment between them, over four
// registered endpoints. Three strategies:
//
//   - BroadcastWhole ships the full pattern to every repository — the
//     pre-decomposition behaviour. It pays a round trip per registered
//     endpoint and returns NOTHING (no repository can satisfy a BGP
//     spanning both vocabularies), which is exactly why the layer exists.
//   - BroadcastFragments decomposes but disables bound joins (MaxBindRows
//     -1): each fragment's full extent crosses the wire and the mediator
//     hash-joins.
//   - BoundJoin is the default decomposed path: the seed fragment's
//     bindings are VALUES-injected into the next fragment's sub-query, so
//     endpoints only return solutions that join.
//
// rt/op counts endpoint round trips, sol/op the solutions transferred
// from endpoints, row/op the correct joined rows produced. BoundJoin
// transfers strictly fewer solutions than either broadcast mode and
// fewer round trips than BroadcastWhole, while being the only strategy
// (besides BroadcastFragments) that answers the query at all.
func BenchmarkDecomposedVsBroadcast(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 50, 150
	u := workload.Generate(cfg)
	var roundTrips atomic.Int64
	counted := func(name string, st *store.Store) *httptest.Server {
		h := endpoint.NewServer(name, st)
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			roundTrips.Add(1)
			h.ServeHTTP(w, r)
		}))
	}
	soton := counted("southampton", u.Southampton)
	b.Cleanup(soton.Close)
	metrics := counted("metrics", workload.MetricsStore(u))
	b.Cleanup(metrics.Close)
	dbp := counted("dbpedia", store.New())
	b.Cleanup(dbp.Close)
	ecs := counted("ecs", store.New())
	b.Cleanup(ecs.Close)

	dsKB := voidkb.NewKB()
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.SotonVoidURI, SPARQLEndpoint: soton.URL,
		URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS},
		Triples:            int64(u.Southampton.Size()),
		PropertyPartitions: map[string]int64{rdf.AKTHasAuthor: 450}})
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.MetricsVoidURI, SPARQLEndpoint: metrics.URL,
		URISpace: workload.SotonURIPattern, Vocabularies: []string{workload.MetricsNS},
		Triples:            300,
		PropertyPartitions: map[string]int64{workload.MetricsCitationCount: 150}})
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.DBPVoidURI, SPARQLEndpoint: dbp.URL,
		URISpace: workload.DBPURIPattern, Vocabularies: []string{rdf.DBONS}})
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.ECSVoidURI, SPARQLEndpoint: ecs.URL,
		URISpace: workload.ECSURIPattern, Vocabularies: []string{rdf.ECSNS}})
	alignKB := align.NewKB()
	allTargets := []string{workload.SotonVoidURI, workload.MetricsVoidURI,
		workload.DBPVoidURI, workload.ECSVoidURI}

	run := func(b *testing.B, m *mediate.Mediator, targets []string) (sols, rows int) {
		fr, err := benchSelect(m, workload.CrossVocabularyQuery(b.N%50), targets)
		if err != nil {
			b.Fatal(err)
		}
		for _, da := range fr.PerDataset {
			sols += da.Solutions
		}
		return sols, len(fr.Solutions)
	}

	for _, mode := range []struct {
		name    string
		targets []string // nil = planner + decomposer
		opts    decompose.Options
	}{
		{"BroadcastWhole", allTargets, decompose.Options{}},
		{"BroadcastFragments", nil, decompose.Options{MaxBindRows: -1}},
		{"BoundJoin", nil, decompose.Options{}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			m := mediate.New(dsKB, alignKB, u.Coref, mediate.WithDecomposer(mode.opts))
			b.Cleanup(m.Close)
			roundTrips.Store(0)
			var transferred, produced int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sols, rows := run(b, m, mode.targets)
				transferred += int64(sols)
				produced += int64(rows)
			}
			b.StopTimer()
			b.ReportMetric(float64(roundTrips.Load())/float64(b.N), "rt/op")
			b.ReportMetric(float64(transferred)/float64(b.N), "sol/op")
			b.ReportMetric(float64(produced)/float64(b.N), "row/op")
			if mode.targets == nil && produced == 0 {
				b.Fatal("decomposed mode produced no rows")
			}
		})
	}
}

// BenchmarkE7_RewriteVsMaterialise — E7: the scalability comparison. The
// Rewrite and Materialise sub-benchmarks share the same universe size so
// their ns/op are directly comparable.
func BenchmarkE7_RewriteVsMaterialise(b *testing.B) {
	cfg := workload.Config{Persons: 500, Papers: 2000, MaxAuthors: 4, Overlap: 1.0, Seed: 42}
	u := workload.Generate(cfg)
	oa := workload.AKT2KISTI()
	b.Run("Rewrite", func(b *testing.B) {
		rw := core.New(oa.Alignments, funcs.StandardRegistry(u.Coref))
		q := sparql.MustParse(workload.Figure1Query(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := rw.RewriteQuery(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Materialise", func(b *testing.B) {
		m := reason.New(oa.Alignments, u.Coref, reason.Options{SourceURISpace: workload.SotonURIPattern})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out := store.New()
			if _, err := m.Materialise(u.KISTI, out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE8_FilterExtension — E8: Figure 6 rewriting with the algebra
// extension enabled (FILTER constants translated).
func BenchmarkE8_FilterExtension(b *testing.B) {
	rw := paperRewriter()
	rw.Opts.RewriteFilters = true
	rw.Opts.TargetURISpace = workload.KistiURIPattern
	q := sparql.MustParse(`PREFIX id:<http://southampton.rkbexplorer.com/id/>
PREFIX akt:<http://www.aktors.org/ontology/portal#>
SELECT DISTINCT ?a WHERE {
  ?paper akt:has-author ?n.
  ?paper akt:has-author ?a.
  FILTER (!(?a = id:person-02686 ) && (?n = id:person-02686))
}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rw.RewriteQuery(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9_CorefLookup — E9: equivalence-class lookup with the 200+
// member class the paper reports for one person. MapSameAs measures the
// rewrite-side function call; the MergeRep sub-benchmarks compare three
// ways of doing the federated merge's per-binding representative lookup
// — re-derive from the coref store each time (a sorted copy of the class
// per binding), memoise the representative string found that way and
// rebuild the term per binding, and federate.RepCache: one probe under
// the IRI's string returning the ready-made term, a miss asking the store
// for just its smallest member (no class copy, no sort; zero allocations
// on the hot path).
func BenchmarkE9_CorefLookup(b *testing.B) {
	cs := coref.NewStore()
	hub := "http://southampton.rkbexplorer.com/id/person-02686"
	members := []rdf.Term{rdf.NewIRI(hub)}
	for i := 0; i < 200; i++ {
		m := fmt.Sprintf("http://mirror%03d.example/id/person-02686", i)
		cs.Add(hub, m)
		members = append(members, rdf.NewIRI(m))
	}
	kisti := "http://kisti.rkbexplorer.com/id/PER_00000000105047"
	cs.Add(hub, kisti)
	members = append(members, rdf.NewIRI(kisti))

	b.Run("MapSameAs", func(b *testing.B) {
		reg := funcs.StandardRegistry(cs)
		args := []rdf.Term{rdf.NewIRI(hub), rdf.NewLiteral(workload.KistiURIPattern)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := reg.Call(rdf.MapSameAs, args); err != nil {
				b.Fatal(err)
			}
		}
	})
	var sink rdf.Term
	b.Run("MergeRep/Recompute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := members[i%len(members)]
			r := t.Value
			for _, eq := range cs.Equivalents(t.Value) {
				if eq < r {
					r = eq
				}
			}
			sink = t
			if r != t.Value {
				sink = rdf.NewIRI(r)
			}
		}
	})
	b.Run("MergeRep/StringMemo", func(b *testing.B) {
		reps := make(map[string]string)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := members[i%len(members)]
			r, ok := reps[t.Value]
			if !ok {
				r = t.Value
				for _, eq := range cs.Equivalents(t.Value) {
					if eq < r {
						r = eq
					}
				}
				reps[t.Value] = r
			}
			sink = t
			if r != t.Value {
				sink = rdf.NewIRI(r)
			}
		}
	})
	b.Run("MergeRep/RepCache", func(b *testing.B) {
		rc := federate.NewRepCache(cs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = rc.Term(members[i%len(members)])
		}
	})
	_ = sink
}

// BenchmarkE10_RewriteScaling — E10: the BGP-size × alignment-KB grid.
func BenchmarkE10_RewriteScaling(b *testing.B) {
	for _, bgp := range []int{1, 4, 16} {
		for _, kb := range []int{8, 64, 512} {
			b.Run(fmt.Sprintf("bgp%d_kb%d", bgp, kb), func(b *testing.B) {
				rw := core.New(workload.SyntheticAlignments(kb), nil)
				q := sparql.MustParse(workload.SyntheticBGPQuery(bgp, kb))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := rw.RewriteQuery(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationMatchMode — first-match (paper) vs all-matches union.
func BenchmarkAblationMatchMode(b *testing.B) {
	eas := workload.SyntheticAlignments(64)
	eas = append(eas, workload.SyntheticAlignments(64)...) // duplicates
	q := sparql.MustParse(workload.SyntheticBGPQuery(8, 64))
	for _, mode := range []struct {
		name string
		mm   core.MatchMode
	}{{"FirstMatch", core.FirstMatch}, {"AllMatches", core.AllMatches}} {
		b.Run(mode.name, func(b *testing.B) {
			rw := core.New(eas, nil)
			rw.Opts.MatchMode = mode.mm
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := rw.RewriteQuery(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationJoinReorder — evaluator selectivity heuristic on/off.
func BenchmarkAblationJoinReorder(b *testing.B) {
	cfg := workload.DefaultConfig()
	u := workload.Generate(cfg)
	q := sparql.MustParse(workload.Figure1Query(1))
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"Heuristic", false}, {"SyntacticOrder", true}} {
		b.Run(mode.name, func(b *testing.B) {
			e := &eval.Engine{Store: u.Southampton, DisableJoinReorder: mode.disable}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Select(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFDPolicy — FD failure policies under an empty coref
// store (every ground sameas fails).
func BenchmarkAblationFDPolicy(b *testing.B) {
	q := sparql.MustParse(workload.Figure1Query(3))
	for _, mode := range []struct {
		name   string
		policy core.FDPolicy
	}{{"KeepOriginal", core.KeepOriginal}, {"SkipAlignment", core.SkipAlignment}} {
		b.Run(mode.name, func(b *testing.B) {
			rw := core.New(workload.AKT2KISTI().Alignments, funcs.StandardRegistry(coref.NewStore()))
			rw.Opts.Policy = mode.policy
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := rw.RewriteQuery(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTracingOverhead measures the span machinery's cost on the
// federated hot path: the same fan-out through the executor with a live
// trace in the context — every sub-query attempt opens spans, records
// attributes and stamps an outbound traceparent — versus without one,
// where every obs call no-ops. The delta is the per-query price of
// distributed tracing.
func BenchmarkTracingOverhead(b *testing.B) {
	_, m := benchStack(b)
	soton, _ := m.Datasets.Get(workload.SotonVoidURI)
	kisti, _ := m.Datasets.Get(workload.KistiVoidURI)
	queries := make([]*sparql.Query, 50)
	for i := range queries {
		queries[i] = sparql.MustParse(workload.Figure1Query(i))
	}
	run := func(b *testing.B, traced bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx := context.Background()
			var tr *obs.Trace
			if traced {
				ctx, tr = obs.NewTrace(ctx, "query")
			}
			freq := federate.Request{
				Vars: []string{"a"},
				Targets: []federate.Target{
					{Dataset: workload.SotonVoidURI, Endpoint: soton.SPARQLEndpoint, Query: queries[i%50]},
					{Dataset: workload.KistiVoidURI, Endpoint: kisti.SPARQLEndpoint, Query: queries[i%50], NeedsRewrite: true},
				},
			}
			st := m.Exec.SelectStream(ctx, freq)
			for {
				if _, err := st.Next(); err != nil {
					break
				}
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			if tr != nil {
				tr.Finish()
			}
		}
	}
	b.Run("untraced", func(b *testing.B) { run(b, false) })
	b.Run("traced", func(b *testing.B) { run(b, true) })
}

// BenchmarkAnalyzeOverhead measures the per-operator profiling
// machinery's cost on the decomposed-query hot path: the same
// cross-vocabulary bound join, planned by the decompose engine and run by
// the evaluator, with a live trace in the context — every stage opens an
// operator span, counts rows and feeds the observed-cardinality store —
// versus without one, where the span calls no-op. The delta is the
// per-query price of the operator profiles a trace document carries
// (estimated and actual rows, q-error), which explain=trace and
// /api/trace/{id}?format=text render.
func BenchmarkAnalyzeOverhead(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 50, 150
	u := workload.Generate(cfg)
	soton := httptest.NewServer(endpoint.NewServer("southampton", u.Southampton))
	b.Cleanup(soton.Close)
	metricsStore := workload.MetricsStore(u)
	metricsEP := httptest.NewServer(endpoint.NewServer("metrics", metricsStore))
	b.Cleanup(metricsEP.Close)
	dsKB := voidkb.NewKB()
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.SotonVoidURI, SPARQLEndpoint: soton.URL,
		URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS},
		Triples: int64(u.Southampton.Size()),
		PropertyPartitions: map[string]int64{
			rdf.AKTHasAuthor: int64(u.Southampton.PredicateCount(rdf.NewIRI(rdf.AKTHasAuthor))),
		}})
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.MetricsVoidURI, SPARQLEndpoint: metricsEP.URL,
		URISpace: workload.SotonURIPattern, Vocabularies: []string{workload.MetricsNS},
		Triples: int64(metricsStore.Size()),
		PropertyPartitions: map[string]int64{
			workload.MetricsCitationCount: int64(metricsStore.PredicateCount(rdf.NewIRI(workload.MetricsCitationCount))),
		}})
	m := mediate.New(dsKB, align.NewKB(), u.Coref)
	b.Cleanup(m.Close)

	dcm, err := m.Decomposer.Decompose(workload.CrossVocabularyQuery(1), "")
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, profiled bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx := context.Background()
			var tr *obs.Trace
			if profiled {
				ctx, tr = obs.NewTrace(ctx, "query")
			}
			rows, err := (&eval.Engine{Funcs: m.Funcs.Resolver()}).Open(ctx, m.JoinEngine.Plan(dcm, nil).Op, dcm.Vars)
			if err != nil {
				b.Fatal(err)
			}
			for _, err := range rows {
				if err != nil {
					b.Fatal(err)
				}
			}
			if tr != nil {
				tr.Finish()
			}
		}
	}
	b.Run("unprofiled", func(b *testing.B) { run(b, false) })
	b.Run("profiled", func(b *testing.B) { run(b, true) })
}

// BenchmarkResultCacheHitVsMiss — the serving tier's federated result
// cache: the miss path pays the full rewrite + fan-out + merge over
// HTTP; the hit path replays the materialised answer with zero endpoint
// round trips (asserted).
func BenchmarkResultCacheHitVsMiss(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 50, 150
	u := workload.Generate(cfg)
	var roundTrips atomic.Int64
	count := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			roundTrips.Add(1)
			h.ServeHTTP(w, r)
		})
	}
	soton := httptest.NewServer(count(endpoint.NewServer("southampton", u.Southampton)))
	b.Cleanup(soton.Close)
	kisti := httptest.NewServer(count(endpoint.NewServer("kisti", u.KISTI)))
	b.Cleanup(kisti.Close)
	dsKB := voidkb.NewKB()
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.SotonVoidURI, SPARQLEndpoint: soton.URL,
		URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS}})
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.KistiVoidURI, SPARQLEndpoint: kisti.URL,
		URISpace: workload.KistiURIPattern, Vocabularies: []string{rdf.KISTINS}})
	alignKB := align.NewKB()
	_ = alignKB.Add(workload.AKT2KISTI())
	m := mediate.New(dsKB, alignKB, u.Coref,
		mediate.WithRewriteFilters(true), mediate.WithServing(serve.Options{}))

	targets := []string{workload.SotonVoidURI, workload.KistiVoidURI}
	q := workload.Figure1Query(0)

	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Serve.Flush() // every iteration re-executes the fan-out
			if _, err := benchSelect(m, q, targets); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		m.Serve.Flush()
		if _, err := benchSelect(m, q, targets); err != nil {
			b.Fatal(err) // prime the entry
		}
		primed := roundTrips.Load()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := benchSelect(m, q, targets); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if got := roundTrips.Load(); got != primed {
			b.Fatalf("hit path made %d endpoint round trips", got-primed)
		}
	})
}

// BenchmarkHedgedVsUnhedged — hedged sub-queries against a degraded
// primary: the primary endpoint stalls every request while a replica
// stays fast. Unhedged, every query pays the stall; hedged (with the
// primary's observed p95 primed from its healthy past), the backup
// fires after the small hedge delay and the p99 stays well under the
// slow endpoint's latency. Reported as p99-ms per variant.
func BenchmarkHedgedVsUnhedged(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 50, 150
	u := workload.Generate(cfg)
	const stall = 50 * time.Millisecond
	sotonEP := endpoint.NewServer("southampton", u.Southampton)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(stall)
		sotonEP.ServeHTTP(w, r)
	}))
	b.Cleanup(slow.Close)
	fast := httptest.NewServer(endpoint.NewServer("southampton-replica", u.Southampton))
	b.Cleanup(fast.Close)

	run := func(b *testing.B, hedge bool) {
		dsKB := voidkb.NewKB()
		_ = dsKB.Add(&voidkb.Dataset{URI: workload.SotonVoidURI, SPARQLEndpoint: slow.URL,
			Replicas: []string{fast.URL},
			URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS}})
		alignKB := align.NewKB()
		_ = alignKB.Add(workload.AKT2KISTI())
		m := mediate.New(dsKB, alignKB, u.Coref,
			mediate.WithRewriteFilters(true),
			mediate.WithFederation(federate.Options{
				Hedge: hedge, HedgeMinDelay: 5 * time.Millisecond,
			}))
		// The primary's healthy history: its observed p95 is a few
		// milliseconds, so the stall overshoots it and triggers the hedge.
		for i := 0; i < 50; i++ {
			m.Exec.Endpoints().RecordProbe(slow.URL, 2*time.Millisecond, nil)
		}
		targets := []string{workload.SotonVoidURI}
		lat := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if _, err := benchSelect(m, workload.Figure1Query(i%50), targets); err != nil {
				b.Fatal(err)
			}
			lat = append(lat, time.Since(t0))
		}
		b.StopTimer()
		sortDurations(lat)
		p99 := lat[len(lat)*99/100]
		b.ReportMetric(float64(p99.Microseconds())/1000, "p99-ms")
	}
	b.Run("unhedged", func(b *testing.B) { run(b, false) })
	b.Run("hedged", func(b *testing.B) { run(b, true) })
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// BenchmarkViewVsFederated — the materialized-view tier against the
// decomposed federated path it shortcuts. Both sub-benchmarks run the
// same cross-vocabulary join; Federated decomposes it and joins over
// HTTP every iteration, View warms the view once and then answers every
// iteration from the view's rows. The rt/op metric counts endpoint
// round trips — the View sub-benchmark fails unless it is exactly zero.
func BenchmarkViewVsFederated(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 50, 150
	u := workload.Generate(cfg)
	var roundTrips atomic.Int64
	counted := func(name string, st *store.Store) *httptest.Server {
		h := endpoint.NewServer(name, st)
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			roundTrips.Add(1)
			h.ServeHTTP(w, r)
		}))
	}
	soton := counted("southampton", u.Southampton)
	b.Cleanup(soton.Close)
	metrics := counted("metrics", workload.MetricsStore(u))
	b.Cleanup(metrics.Close)
	dsKB := voidkb.NewKB()
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.SotonVoidURI, SPARQLEndpoint: soton.URL,
		URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS},
		Triples:            int64(u.Southampton.Size()),
		PropertyPartitions: map[string]int64{rdf.AKTHasAuthor: 450}})
	_ = dsKB.Add(&voidkb.Dataset{URI: workload.MetricsVoidURI, SPARQLEndpoint: metrics.URL,
		URISpace: workload.SotonURIPattern, Vocabularies: []string{workload.MetricsNS},
		Triples:            300,
		PropertyPartitions: map[string]int64{workload.MetricsCitationCount: 150}})
	query := workload.CrossVocabularyQuery(7)

	var fedRows int
	b.Run("Federated", func(b *testing.B) {
		m := mediate.New(dsKB, align.NewKB(), u.Coref)
		b.Cleanup(m.Close)
		roundTrips.Store(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fr, err := benchSelect(m, query, nil)
			if err != nil {
				b.Fatal(err)
			}
			fedRows = len(fr.Solutions)
		}
		b.StopTimer()
		b.ReportMetric(float64(roundTrips.Load())/float64(b.N), "rt/op")
	})
	b.Run("View", func(b *testing.B) {
		m := mediate.New(dsKB, align.NewKB(), u.Coref,
			mediate.WithViews(view.Options{MinFrequency: 1}))
		b.Cleanup(m.Close)
		// Warm: the first query is observed, answered federated, and
		// materialized in the background; wait for the view to be ready.
		if _, err := benchSelect(m, query, nil); err != nil {
			b.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			vs := m.Stats().Views
			if vs != nil && len(vs.Views) == 1 && vs.Views[0].State == "ready" {
				break
			}
			if time.Now().After(deadline) {
				b.Fatal("view never materialized")
			}
			time.Sleep(5 * time.Millisecond)
		}
		roundTrips.Store(0)
		b.ReportAllocs()
		b.ResetTimer()
		var rows int
		for i := 0; i < b.N; i++ {
			fr, err := benchSelect(m, query, nil)
			if err != nil {
				b.Fatal(err)
			}
			rows = len(fr.Solutions)
		}
		b.StopTimer()
		if rt := roundTrips.Load(); rt != 0 {
			b.Fatalf("view-answered queries made %d endpoint round trips, want 0", rt)
		}
		if fedRows != 0 && rows != fedRows {
			b.Fatalf("view answered %d rows, federated answered %d", rows, fedRows)
		}
		b.ReportMetric(0, "rt/op")
	})
}
