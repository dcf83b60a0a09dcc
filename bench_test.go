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
	"testing"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/core"
	"sparqlrw/internal/coref"
	"sparqlrw/internal/endpoint"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/funcs"
	"sparqlrw/internal/mediate"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/reason"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/store"
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
// rebuild the term per binding, and federate.RepCache, the mediator's one
// co-reference cache: one probe under the IRI's string returning the
// ready-made term, a miss filling every member of the class at once (zero
// allocations on the hot path).
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
			if _, err := m.Exec.Select(ctx, freq).Run(func(eval.Row) bool { return true }); err != nil {
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
			rows, err := (&eval.Engine{Funcs: m.Funcs.Resolver()}).Open(ctx, m.JoinEngine.Plan(dcm, nil, 0).Op, dcm.Vars)
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
