package mediate

// The mediator against ground truth. The oracle never asks the mediator:
// it integrates the generated repositories the way the paper's
// materialisation baseline does and evaluates each query once, locally.
// The differential then sends the same queries down every execution path
// the mediator has and holds each answer to the oracle's.

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/core"
	"sparqlrw/internal/decompose"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/reason"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/store"
	"sparqlrw/internal/view"
	"sparqlrw/internal/voidkb"
	"sparqlrw/internal/workload"
)

// oracle holds a universe's repositories integrated into one store in the
// AKT vocabulary, next to KISTI's data as it stores it (the one repository
// of the KISTI vocabulary), every IRI spelled as its owl:sameAs
// representative (the lexicographically smallest alias), the spelling the
// mediator's merge answers in.
type oracle struct {
	u     *workload.Universe
	store *store.Store
}

// newOracle integrates the repositories of the source set repos: nil
// integrates all three.
func newOracle(t testing.TB, u *workload.Universe, repos voidkb.Sources) *oracle {
	t.Helper()
	integrated := store.New()
	if repos.Has(workload.SotonVoidURI) {
		integrated.AddGraph(u.Southampton.Triples())
	}
	if repos.Has(workload.MetricsVoidURI) {
		integrated.AddGraph(workload.MetricsStore(u).Triples())
	}
	if repos.Has(workload.KistiVoidURI) {
		// KISTI in the AKT vocabulary: the alignments without functional
		// dependencies translate as plain CONSTRUCT queries, the ones with
		// sameas dependencies through the materialiser, which maps
		// instance URIs back into Southampton's URI space.
		eas := workload.AKT2KISTI().Alignments
		g, skipped, err := core.TranslateData(u.KISTI, eas, false)
		if err != nil {
			t.Fatal(err)
		}
		integrated.AddGraph(g)
		integrated.AddGraph(u.KISTI.Triples())
		var withFDs []*align.EntityAlignment
		for _, ea := range eas {
			if slices.Contains(skipped, ea.ID) {
				withFDs = append(withFDs, ea)
			}
		}
		mat := reason.New(withFDs, u.Coref, reason.Options{SourceURISpace: workload.SotonURIPattern})
		if _, err := mat.Materialise(u.KISTI, integrated); err != nil {
			t.Fatal(err)
		}
	}
	o := &oracle{u: u, store: store.New()}
	for _, tr := range integrated.Triples() {
		o.store.Add(rdf.Triple{S: o.canon(tr.S), P: tr.P, O: o.canon(tr.O)})
	}
	return o
}

// canon returns an IRI's owl:sameAs representative; other terms pass.
func (o *oracle) canon(t rdf.Term) rdf.Term {
	if !t.IsIRI() {
		return t
	}
	rep := t.Value
	for _, eq := range o.u.Coref.Equivalents(t.Value) {
		rep = min(rep, eq)
	}
	return rdf.NewIRI(rep)
}

// answer evaluates a SELECT as the mediator must answer it: ground IRIs
// canonicalised like the data — in every group, and in VALUES rows — and
// as a set — every federated answer is
// merged, which drops duplicate rows — in the query's order when it has
// one. Any min(limit, n − offset) rows of an unordered answer are a right
// slice of it, so without ORDER BY the oracle answers the unsliced query.
// The rows bind the query's projection by position.
func (o *oracle) answer(t testing.TB, text string) [][]rdf.Term {
	t.Helper()
	q := sparql.MustParse(text)
	q.Distinct, q.Reduced = true, false
	if len(q.OrderBy) == 0 {
		q.Limit, q.Offset = -1, -1
	}
	sparql.Walk(q.Where, func(el sparql.GroupElement) {
		switch e := el.(type) {
		case *sparql.BGP:
			for i, tp := range e.Patterns {
				e.Patterns[i] = rdf.Triple{S: o.canon(tp.S), P: tp.P, O: o.canon(tp.O)}
			}
		case *sparql.Filter:
			e.Expr = sparql.MapExprTerms(e.Expr, o.canon)
		case *sparql.InlineData:
			for _, row := range e.Rows {
				for i, t := range row {
					row[i] = o.canon(t)
				}
			}
		}
	})
	rr, err := eval.New(o.store).SelectRows(q)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]rdf.Term
	for row := range rr.Seq {
		out = append(out, slices.Clone(row))
	}
	return out
}

// askOf is the ASK over the WHERE clause of a SELECT's text.
func askOf(text string) string {
	i := strings.Index(text, "SELECT ")
	return text[:i] + "ASK " + text[i+strings.Index(text[i:], "WHERE"):]
}

// mediatorAsk runs an ASK through m and returns its answer.
func mediatorAsk(m *Mediator, req QueryRequest) (bool, error) {
	res, err := m.Query(context.Background(), req)
	if err != nil {
		return false, err
	}
	defer res.Close()
	if res.Form() != sparql.Ask {
		return false, fmt.Errorf("an ASK answered as %s", res.Form())
	}
	return res.Bool(), nil
}

// mediatorRows runs a SELECT through m and returns its rows in the order
// they arrived.
func mediatorRows(m *Mediator, req QueryRequest) ([][]rdf.Term, error) {
	res, err := m.Query(context.Background(), req)
	if err != nil {
		return nil, err
	}
	defer res.Close()
	var out [][]rdf.Term
	for row, err := range res.Bindings().Rows() {
		if err != nil {
			return nil, err
		}
		out = append(out, slices.Clone(row))
	}
	return out, nil
}

// diffPath is one way through the mediator: its configuration and the
// targets a request names (none: the planner picks, and decomposes when
// no single repository answers).
type diffPath struct {
	name    string
	opts    []Option
	targets []string
	// cached runs every query twice; the second answer must come from the
	// result cache without an endpoint round trip.
	cached bool
	// viewed first materializes the three fragments of a cross-vocabulary
	// query about a person no template names, which fills the view cap:
	// every cross-vocabulary variant must then take its two shared
	// fragments from their views and its person's papers from the
	// endpoints — all but the citation counts when the differential's
	// FILTER on them makes theirs a filtered fragment, which views never
	// answer — and still do so once the views are refreshed after an
	// alignment write stales them.
	viewed bool
	// slow delays every answer of a primary endpoint, so that hedged
	// dispatch races it against the data set's replica; such a path runs
	// the templates of the planned path.
	slow time.Duration
}

// diffTemplate is a query shape with its projection, the FILTER the
// differential adds to it and the paths that can answer it. sources, when
// set, narrows every request's source set to those repositories, and the
// oracle integrates only them.
type diffTemplate struct {
	name    string
	texts   []string
	vars    []string
	filter  string
	paths   []string
	sources []string
}

// variants are the template's query with the solution modifiers the
// mediator applies: the bag or set form, a FILTER, ORDER BY (over every
// projected variable, so the order is total), and the slices.
func (d diffTemplate) variants() map[string]string {
	order := fmt.Sprintf(" ORDER BY DESC(?%s) ?%s", d.vars[0], strings.Join(d.vars[1:], " ?"))
	if len(d.vars) == 1 {
		order = " ORDER BY DESC(?" + d.vars[0] + ")"
	}
	out := map[string]string{}
	for i, text := range d.texts {
		toggled := strings.Replace(text, "SELECT ", "SELECT DISTINCT ", 1)
		if strings.Contains(text, "SELECT DISTINCT") {
			toggled = strings.Replace(text, "SELECT DISTINCT ", "SELECT ", 1)
		}
		for name, v := range map[string]string{
			"plain":                   text,
			"distinct toggled":        toggled,
			"order":                   text + order,
			"order, sliced":           text + order + " LIMIT 3 OFFSET 2",
			"toggled, order, limit 2": toggled + order + " LIMIT 2",
			"limit":                   text + " LIMIT 3",
			"toggled, limit 2":        toggled + " LIMIT 2",
			"offset":                  text + " OFFSET 2",
			"toggled, limit 1":        toggled + " LIMIT 1",
		} {
			out[fmt.Sprintf("%s %d, %s", d.name, i, name)] = v
		}
		if d.filter != "" {
			filtered := text[:strings.LastIndex(text, "}")] + " FILTER (" + d.filter + ") }"
			out[fmt.Sprintf("%s %d, filter", d.name, i)] = filtered
			out[fmt.Sprintf("%s %d, filter, order, sliced", d.name, i)] = filtered + order + " LIMIT 3 OFFSET 1"
		}
	}
	return out
}

// TestMediatorMatchesOracle drives the Figure-1 and cross-vocabulary
// shapes (also naming their person by its KISTI owl:sameAs spelling), the
// bulk and citation-metrics shapes, and the OPTIONAL, UNION and top-level
// VALUES shapes that run only whole, with their modifier variants, through
// explicit targets, the planner (one source and a fan-out), the decomposed
// bound join, a forced hash join, sharded VALUES, a result-cache hit, a
// materialized view and hedged dispatch that a slowed primary loses to its
// replica (the cross-vocabulary shape also with every
// repository named; a view over Southampton and KISTI never answers a
// request narrowed to Southampton), and holds every answer to the
// oracle's: the same
// rows, in the same order under ORDER BY; under a slice without ORDER BY,
// the right number of the oracle's rows. Every variant also runs under a
// request limit of 1 and of 3, a further slice of the same answer, and
// each text of a template as an ASK, true when the oracle's answer is not
// empty.
func TestMediatorMatchesOracle(t *testing.T) {
	o := newOracle(t, exampleUniverse(), nil)
	both := []string{workload.SotonVoidURI, workload.KistiVoidURI}
	paths := []diffPath{
		{name: "explicit targets", targets: both},
		{name: "explicit target, metrics", targets: []string{workload.MetricsVoidURI}},
		{name: "explicit targets, all three", targets: []string{workload.SotonVoidURI, workload.KistiVoidURI, workload.MetricsVoidURI}},
		{name: "planned"},
		{name: "bound join, VALUES sharded", opts: []Option{WithDecomposer(decompose.Options{BindBatch: 2})}},
		{name: "hash join", opts: []Option{WithDecomposer(decompose.Options{MaxBindRows: -1})}},
		{name: "result cache", opts: []Option{WithServing(serve.Options{})}, cached: true},
		{name: "view", opts: []Option{WithViews(view.Options{MinFrequency: 1, MaxViews: 3})}, viewed: true},
		{name: "hedged", opts: []Option{WithFederation(federate.Options{Hedge: true, HedgeMinDelay: 2 * time.Millisecond})},
			slow: time.Second},
	}
	metrics := "PREFIX m:<" + workload.MetricsNS + ">\nSELECT ?paper ?c WHERE { ?paper m:citationCount ?c }"
	akt := "PREFIX akt:<" + rdf.AKTNS + ">\n"
	person := func(i int) string { return "<" + workload.SotonPerson(i).Value + ">" }
	optional := func(i, j int) string {
		return akt + "SELECT ?paper ?a ?t WHERE { ?paper akt:has-author " + person(i) + " . ?paper akt:has-author ?a " +
			"OPTIONAL { ?paper akt:has-author " + person(j) + " . ?paper akt:has-title ?t } }"
	}
	union := akt + "SELECT ?paper ?a WHERE { { ?paper akt:has-author " + person(2) + " . ?paper akt:has-author ?a } " +
		"UNION { ?paper akt:has-author " + person(7) + " . ?paper akt:has-author ?a } }"
	values := akt + "SELECT ?paper ?a WHERE { VALUES ?paper {"
	for j := 3; j < 6; j++ {
		values += " <" + workload.SotonPaper(j).Value + ">"
	}
	values += " } ?paper akt:has-author ?a }"
	whole := []string{"explicit targets", "planned", "result cache"}
	// Two KISTI patterns and one AKT pattern: KISTI answers all three, the
	// AKT one through the AKT alignments, so the query goes to it whole and
	// each triple is rewritten by the alignment its own IRIs match.
	coauthors := akt + "SELECT ?paper ?a WHERE { ?paper akt:has-author " + person(5) + " . ?paper akt:has-author ?a }"
	mixed := akt + "PREFIX k:<" + rdf.KISTINS + ">\nSELECT ?paper ?t ?a WHERE { ?paper k:title ?t . ?paper k:year ?y . ?paper akt:has-author ?a }"
	// The same shape about one paper named by its Southampton spelling:
	// KISTI receives the KISTI patterns' instance in its own spelling too.
	paper := "<" + workload.SotonPaper(1).Value + ">"
	mixedGround := akt + "PREFIX k:<" + rdf.KISTINS + ">\nSELECT ?t ?y ?a WHERE { " + paper + " k:title ?t . " +
		paper + " k:year ?y . " + paper + " akt:has-author ?a }"
	// A FILTER over two fragments' variables runs at the mediator, over
	// rows that bind owl:sameAs representatives (?a person 2's KISTI IRI),
	// so its IRI constant must be canonicalised like them.
	residual := strings.Replace(workload.CrossVocabularyQuery(2), "\n}", "\n  FILTER (?a != "+person(2)+" || ?c < 0)\n}", 1)
	crossPaths := []string{"explicit targets, all three", "planned", "bound join, VALUES sharded", "hash join", "result cache", "view"}
	// The same shapes naming the Southampton person by its KISTI spelling,
	// in the BGP and in the FILTER: owl:sameAs makes them the same queries.
	kisti := func(text string, persons ...int) string {
		for _, i := range persons {
			alias := workload.KistiPerson(i).Value
			if !slices.Contains(o.u.Coref.Equivalents(workload.SotonPerson(i).Value), alias) {
				t.Fatalf("person %d has no KISTI spelling", i)
			}
			text = strings.ReplaceAll(text, workload.SotonPerson(i).Value, alias)
		}
		return text
	}
	templates := []diffTemplate{
		{name: "figure 1", texts: []string{workload.Figure1Query(2), workload.Figure1Query(7)}, vars: []string{"a"},
			paths: []string{"explicit targets", "planned", "result cache"}},
		{name: "cross-vocabulary", texts: []string{workload.CrossVocabularyQuery(2), workload.CrossVocabularyQuery(7)},
			vars: []string{"c", "paper", "a"}, filter: "?c > 40", paths: crossPaths},
		{name: "cross-vocabulary, residual IRI filter", texts: []string{residual}, vars: []string{"c", "paper", "a"}, paths: crossPaths},
		{name: "figure 1, KISTI spelling", texts: []string{kisti(workload.Figure1Query(2), 2), kisti(workload.Figure1Query(7), 7)}, vars: []string{"a"},
			paths: []string{"explicit targets", "explicit targets, all three", "planned", "bound join, VALUES sharded", "hash join", "result cache"}},
		{name: "cross-vocabulary, KISTI spelling", texts: []string{kisti(workload.CrossVocabularyQuery(7), 7), kisti(residual, 2)},
			vars: []string{"c", "paper", "a"}, filter: "?c > 40", paths: crossPaths},
		{name: "bulk", texts: []string{bulkQuery}, vars: []string{"t", "paper", "a"}, filter: `REGEX(?t, "1")`,
			paths: []string{"explicit targets", "planned", "result cache"}},
		{name: "metrics", texts: []string{metrics}, vars: []string{"c", "paper"}, filter: "?c < 30",
			paths: []string{"explicit target, metrics", "planned", "result cache"}},
		{name: "optional", texts: []string{optional(2, 5), optional(7, 3)}, vars: []string{"t", "paper", "a"}, filter: "BOUND(?t)",
			paths: whole},
		{name: "union", texts: []string{union}, vars: []string{"a", "paper"}, filter: "!(?a = " + person(2) + ")", paths: whole},
		{name: "values", texts: []string{values}, vars: []string{"a", "paper"}, filter: "!(?a = " + person(2) + ")", paths: whole},
		{name: "coauthors", texts: []string{coauthors}, vars: []string{"a", "paper"},
			paths: []string{"explicit targets", "planned", "hash join", "result cache"}},
		{name: "mixed vocabularies", texts: []string{mixed}, vars: []string{"t", "paper", "a"}, filter: `REGEX(?t, "1")`,
			paths: []string{"explicit targets", "planned", "bound join, VALUES sharded", "hash join", "result cache"}},
		{name: "mixed vocabularies, ground paper", texts: []string{mixedGround}, vars: []string{"t", "y", "a"},
			paths: []string{"explicit targets", "planned", "bound join, VALUES sharded", "hash join", "result cache"}},
		// The view of the cross-vocabulary query's authorship fragment has
		// this shape, but was built over Southampton and KISTI.
		{name: "authorship, Southampton alone", texts: []string{akt + "SELECT ?paper ?a WHERE { ?paper akt:has-author ?a }"},
			vars: []string{"a", "paper"}, paths: []string{"planned", "view"}, sources: []string{workload.SotonVoidURI}},
	}
	narrowed := map[string]*oracle{}
	oracleFor := func(tmpl diffTemplate) *oracle {
		if tmpl.sources == nil {
			return o
		}
		key := strings.Join(tmpl.sources, " ")
		if narrowed[key] == nil {
			src := voidkb.Sources{}
			for _, uri := range tmpl.sources {
				src[uri] = true
			}
			narrowed[key] = newOracle(t, o.u, src)
		}
		return narrowed[key]
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			var roundTrips atomic.Int64
			count := func(_ string, h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					roundTrips.Add(1)
					if path.slow > 0 {
						select {
						case <-time.After(path.slow):
						case <-r.Context().Done(): // the hedge won
							return
						}
					}
					h.ServeHTTP(w, r)
				})
			}
			m := exampleFederation(t, count, path.opts...)
			if path.viewed {
				selectRows(t, m, workload.CrossVocabularyQuery(3))
				waitViewsReady(t, m, 3)
			}
			type diffCase struct {
				name, text string
				req        QueryRequest
				want       [][]rdf.Term
				// ask is an ASK case, whose answer is that want is not empty.
				ask bool
				// viewHits are the fragments views answer once ready.
				viewHits uint64
			}
			var cases []diffCase
			for _, tmpl := range templates {
				if !slices.Contains(tmpl.paths, path.name) &&
					!(path.slow > 0 && slices.Contains(tmpl.paths, "planned")) {
					continue
				}
				req := QueryRequest{Targets: path.targets}
				if tmpl.sources != nil {
					req.Targets = tmpl.sources
				}
				hits := func(name string) uint64 {
					switch {
					case tmpl.sources != nil:
						return 0
					case strings.HasSuffix(name, ", filter") || strings.Contains(name, ", filter,"):
						return 1
					}
					return 2
				}
				for name, text := range tmpl.variants() {
					want := oracleFor(tmpl).answer(t, text)
					for _, limit := range []int{0, 1, 3} {
						req.Query, req.Limit = text, limit
						named := name
						if limit > 0 {
							named = fmt.Sprintf("%s, request limit %d", name, limit)
						}
						cases = append(cases, diffCase{name: named, text: text, req: req, want: want, viewHits: hits(name)})
					}
				}
				for i, text := range tmpl.texts {
					name := fmt.Sprintf("%s %d, ask", tmpl.name, i)
					req.Query, req.Limit = askOf(text), 0
					cases = append(cases, diffCase{name: name, text: text, req: req, want: oracleFor(tmpl).answer(t, text), ask: true, viewHits: hits(name)})
				}
			}
			if len(cases) == 0 {
				t.Fatal("no case ran on this path")
			}
			// run asks every case and holds it to the oracle; on the cached
			// path a second time, from the cache; on the view path, with
			// the views ready, also to its mix of view-answered and fetched
			// fragments.
			run := func(when string, viewsReady bool) {
				// check asks c and holds its answer to the oracle's. cut
				// reports that the request limit ended a SELECT's rows, which
				// leaves its answer uncached.
				check := func(c diffCase, when string) (cut bool, err error) {
					if !c.ask {
						got, err := mediatorRows(m, c.req)
						if err == nil {
							checkRequestAgainstOracle(t, c.name+when, c.text, c.req.Limit, got, c.want)
						}
						return c.req.Limit > 0 && len(got) == c.req.Limit, err
					}
					got, err := mediatorAsk(m, c.req)
					if want := len(c.want) > 0; err == nil && got != want {
						t.Errorf("%s%s: %v, want %v\n%s", c.name, when, got, want, c.req.Query)
					}
					return false, err
				}
				for _, c := range cases {
					before, hits := roundTrips.Load(), m.Views.Stats().Hits
					cut, err := check(c, when)
					if err != nil {
						t.Errorf("%s%s: %v", c.name, when, err)
						continue
					}
					trips, hit := roundTrips.Load()-before, m.Views.Stats().Hits-hits
					if viewsReady && (hit != c.viewHits || trips == 0) {
						t.Errorf("%s%s: %d view hits, %d round trips; want %d and the rest fetched", c.name, when, hit, trips, c.viewHits)
					}
					if !path.cached {
						continue
					}
					before = roundTrips.Load()
					_, err = check(c, ", from the cache")
					if trips := roundTrips.Load() - before; err != nil || trips != 0 && !cut {
						t.Errorf("%s, repeated: %v, %d round trips, want a cache hit", c.name, err, trips)
					}
				}
			}
			run("", path.viewed)
			if path.slow > 0 {
				if st := m.Stats().Federation; st.Hedges == 0 || st.HedgeWins == 0 {
					t.Errorf("%d hedged dispatches, %d won by the replica; want both above 0", st.Hedges, st.HedgeWins)
				}
			}
			if !path.viewed {
				return
			}
			// An alignment write stales every view: each variant is answered
			// from the endpoints or from its refreshed views, and either way
			// as the oracle answers it; once the views are ready again, with
			// the mix it had before. No case reads the view of person 3's
			// papers, so it is read first: a view nobody hit since its build
			// is dropped at the write, not rebuilt.
			selectRows(t, m, workload.CrossVocabularyQuery(3))
			refreshes := m.Views.Stats().Refreshes
			if err := m.Alignments.Add(workload.ECS2DBpedia()); err != nil {
				t.Fatal(err)
			}
			run(", after an alignment write", false)
			deadline := time.Now().Add(10 * time.Second)
			for m.Views.Stats().Refreshes < refreshes+3 {
				if time.Now().After(deadline) {
					t.Fatalf("the views never refreshed: %+v", m.Views.Stats())
				}
				time.Sleep(time.Millisecond)
			}
			waitViewsReady(t, m, 3)
			run(", refreshed", true)
			changingWrites(t, m, o)
		})
	}
}

// changingWrites removes the AKT→KISTI alignment from m's KB and loads it
// again, while clients keep asking Figure-1 and cross-vocabulary queries,
// so queries meet every rebuild the writes start. Every answer to a query
// sent after a write returned, and before the next, is the oracle's over
// the KB as written: without the alignment, KISTI's data answers nothing
// in the AKT vocabulary. At the first write, the view nobody hit since its
// build (person 3's papers) is dropped and the two the cases read are
// rebuilt. The writes also move the authorship fragment's targets (KISTI
// leaves them and comes back), so a view built before a write stops
// matching on its data sets too; TestWaitReleases holds a waiter to a
// build at the current KB state where the data sets stay.
func changingWrites(t *testing.T, m *Mediator, o *oracle) {
	// The authorship query is the shape of the shared view of authors,
	// which answers it whole: its rows are what the writes change. No
	// query is about person 3, whose papers' view must stay unread.
	queries := []string{"PREFIX akt:<" + rdf.AKTNS + ">\nSELECT ?paper ?a WHERE { ?paper akt:has-author ?a }",
		workload.Figure1Query(0), workload.Figure1Query(5), workload.CrossVocabularyQuery(2),
		workload.CrossVocabularyQuery(5), workload.CrossVocabularyQuery(7)}
	withoutKISTI := newOracle(t, o.u, voidkb.Sources{workload.SotonVoidURI: true, workload.MetricsVoidURI: true})
	removed := *workload.AKT2KISTI()
	removed.Alignments = nil
	writes := []struct {
		name   string
		oa     *align.OntologyAlignment
		oracle *oracle
	}{
		{"after the AKT→KISTI alignment is removed", &removed, withoutKISTI},
		{"after it is loaded again", workload.AKT2KISTI(), o},
	}
	want := make([][][][]rdf.Term, len(writes))
	for w, write := range writes {
		for _, q := range queries {
			want[w] = append(want[w], write.oracle.answer(t, q))
		}
	}
	for k := range 3 {
		if reflect.DeepEqual(sortedRows(want[0][k]), sortedRows(want[1][k])) {
			t.Fatalf("removing the alignment leaves the answer to %s as it was", queries[k])
		}
	}

	// phase is 1 + the index of the last write that returned, 0 before
	// the first; checked counts the answers held to each phase's oracle.
	var phase atomic.Int32
	checked := make([]atomic.Int64, len(writes))
	stop := make(chan struct{})
	var clients sync.WaitGroup
	for c := range 2 {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k, p := i%len(queries), phase.Load()
				got, err := mediatorRows(m, QueryRequest{Query: queries[k]})
				if err != nil {
					t.Errorf("query during the writes: %v", err)
					return
				}
				if p == 0 || phase.Load() != p {
					continue // sent before a write returned, or overtaken by one
				}
				checkAgainstOracle(t, writes[p-1].name, queries[k], got, want[p-1][k])
				checked[p-1].Add(1)
			}
		}()
	}
	defer func() {
		close(stop)
		clients.Wait()
	}()

	// Every case read the two shared views; none read person 3's papers'.
	views := m.Views.Stats()
	var hot, cold []string
	for _, v := range views.Views {
		if patterns := strings.Join(v.Patterns, " "); strings.Contains(patterns, workload.KistiPerson(3).Value) ||
			strings.Contains(patterns, workload.SotonPerson(3).Value) {
			cold = append(cold, v.ID)
		} else {
			hot = append(hot, v.ID)
		}
	}
	if len(cold) != 1 || len(hot) != 2 {
		t.Fatalf("views %+v: want person 3's papers and the two shared fragments", views.Views)
	}
	for w, write := range writes {
		before := m.Views.Stats()
		if err := m.Alignments.Add(write.oa); err != nil {
			t.Fatal(err)
		}
		phase.Store(int32(w + 1))
		if st := m.Views.Stats(); w == 0 {
			ids := map[string]bool{}
			for _, v := range st.Views {
				ids[v.ID] = true
			}
			if ids[cold[0]] || !ids[hot[0]] || !ids[hot[1]] || st.Evictions != before.Evictions+1 {
				t.Fatalf("after the write: views %+v, %d evictions (%d before); want %s dropped, %v kept",
					st.Views, st.Evictions, before.Evictions, cold[0], hot)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := m.Views.Stats()
			settled := !slices.ContainsFunc(st.Views, func(v view.Info) bool { return v.State != "ready" })
			if settled && (w > 0 || st.Refreshes >= before.Refreshes+2) && checked[w].Load() >= 8 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: views %+v, %d answers checked", write.name, st, checked[w].Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestHubEntityBoundJoin: every paper carries four owl:sameAs aliases in
// no registered URI space that sort ahead of its Southampton and KISTI
// spellings, so the merge's representative is one of them. The
// cross-vocabulary bound joins must still reach each paper's spellings at
// every endpoint and answer as the oracle does; a cap of four spellings
// per key, all of them aliases, would join nothing.
func TestHubEntityBoundJoin(t *testing.T) {
	const person = 3
	u := exampleUniverse()
	for j := range u.Cfg.Papers {
		for i := range 4 {
			u.Coref.Add(workload.SotonPaper(j).Value, fmt.Sprintf("http://aliases.example/paper-%05d/%d", j, i))
		}
	}
	m := federationOver(t, u, nil)
	text := workload.CrossVocabularyQuery(person)
	want := newOracle(t, u, nil).answer(t, text)
	if len(want) != 29 {
		t.Fatalf("the oracle answers %d rows, want person %d's 29", len(want), person)
	}
	got, err := mediatorRows(m, QueryRequest{Query: text})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, "hub entities", text, got, want)
}

// graph is the oracle's answer to a CONSTRUCT or DESCRIBE over the
// repositories of repos (nil: all three), as a set of triples. A CONSTRUCT
// answers its template instantiated over the oracle's answer of its WHERE
// clause. A DESCRIBE answers every triple whose subject is in the
// owl:sameAs class of a resource — a ground one, or an IRI its WHERE
// clause binds to a described variable — read from the repositories as
// they store it, every IRI canonicalised.
func (o *oracle) graph(t testing.TB, text string, repos voidkb.Sources) map[rdf.Triple]bool {
	t.Helper()
	q := sparql.MustParse(text)
	sel := q.Clone()
	sel.Form, sel.Template, sel.DescribeTerms = sparql.Select, nil, nil
	out := map[rdf.Triple]bool{}
	if q.Form == sparql.Construct {
		for _, tp := range q.Template {
			for _, v := range tp.Vars() {
				if !slices.Contains(sel.SelectVars, v) {
					sel.SelectVars = append(sel.SelectVars, v)
				}
			}
		}
		for _, row := range o.answer(t, sparql.Format(sel)) {
			bind := func(x rdf.Term) rdf.Term {
				if x.IsVar() {
					return row[slices.Index(sel.SelectVars, x.Value)]
				}
				return o.canon(x)
			}
			for _, tp := range q.Template {
				out[rdf.Triple{S: bind(tp.S), P: bind(tp.P), O: bind(tp.O)}] = true
			}
		}
		return out
	}
	ground, vars := q.DescribeResources()
	described := map[rdf.Term]bool{}
	for _, r := range ground {
		described[o.canon(r)] = true
	}
	if len(vars) > 0 {
		sel.SelectVars = vars
		for _, row := range o.answer(t, sparql.Format(sel)) {
			for _, x := range row {
				if x.IsIRI() {
					described[x] = true
				}
			}
		}
	}
	for uri, st := range map[string]*store.Store{
		workload.SotonVoidURI:   o.u.Southampton,
		workload.KistiVoidURI:   o.u.KISTI,
		workload.MetricsVoidURI: workload.MetricsStore(o.u),
	} {
		if !repos.Has(uri) {
			continue
		}
		for _, tr := range st.Triples() {
			if described[o.canon(tr.S)] {
				out[rdf.Triple{S: o.canon(tr.S), P: o.canon(tr.P), O: o.canon(tr.O)}] = true
			}
		}
	}
	return out
}

// mediatorGraph runs a CONSTRUCT or DESCRIBE through m and returns its
// triples as a set.
func mediatorGraph(m *Mediator, req QueryRequest) (map[rdf.Triple]bool, error) {
	res, err := m.Query(context.Background(), req)
	if err != nil {
		return nil, err
	}
	defer res.Close()
	g, err := res.Graph().Collect()
	if err != nil {
		return nil, err
	}
	out := map[rdf.Triple]bool{}
	for _, tr := range g {
		out[tr] = true
	}
	return out, nil
}

// checkGraph compares one graph answer with the oracle's.
func checkGraph(t *testing.T, name string, got, want map[rdf.Triple]bool) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: the oracle's answer is empty; the case tests nothing", name)
	}
	var missing, extra []string
	for tr := range want {
		if !got[tr] {
			missing = append(missing, tr.String())
		}
	}
	for tr := range got {
		if !want[tr] {
			extra = append(extra, tr.String())
		}
	}
	if len(missing)+len(extra) > 0 {
		slices.Sort(missing)
		slices.Sort(extra)
		t.Errorf("%s: %d triples, the oracle's %d\nmissing %v\nextra %v", name, len(got), len(want),
			missing[:min(len(missing), 5)], extra[:min(len(extra), 5)])
	}
}

// TestGraphFormsMatchOracle drives CONSTRUCT and DESCRIBE through explicit
// targets, the planner, the bound join with VALUES shards and the hash
// join, and holds every graph to the oracle's. The DESCRIBE cases name a
// person in both its spellings, resources bound by a WHERE clause to one
// variable and to two, and resources bound by a cross-vocabulary WHERE
// clause that only decomposes.
func TestGraphFormsMatchOracle(t *testing.T) {
	u := exampleUniverse()
	o := newOracle(t, u, nil)
	person := workload.SotonPerson(2).Value
	alias := ""
	for _, eq := range u.Coref.Equivalents(person) {
		if strings.HasPrefix(eq, workload.KistiIDSpace) {
			alias = eq
		}
	}
	if alias == "" {
		t.Fatal("person 2 has no KISTI alias")
	}
	paths := []diffPath{
		{name: "explicit targets", targets: []string{workload.SotonVoidURI, workload.KistiVoidURI, workload.MetricsVoidURI}},
		{name: "planned"},
		{name: "bound join, VALUES sharded", opts: []Option{WithDecomposer(decompose.Options{BindBatch: 2})}},
		{name: "hash join", opts: []Option{WithDecomposer(decompose.Options{MaxBindRows: -1})}},
	}
	prefixes := "PREFIX akt:<" + rdf.AKTNS + ">\nPREFIX m:<" + workload.MetricsNS + ">\n"
	wrote := "?paper akt:has-author <" + person + "> . "
	every := []string{"explicit targets", "planned", "bound join, VALUES sharded", "hash join"}
	decomposed := every[1:]
	cases := []struct {
		name, text string
		paths      []string
	}{
		{"describe, person", "DESCRIBE <" + person + ">", every},
		{"describe, person's KISTI spelling", "DESCRIBE <" + alias + ">", every},
		{"describe, papers", prefixes + "DESCRIBE ?paper WHERE { " + wrote + "}", every},
		{"describe, papers and co-authors", prefixes + "DESCRIBE ?paper ?a WHERE { " + wrote + "?paper akt:has-author ?a }", every},
		{"describe, cross-vocabulary", prefixes + "DESCRIBE ?paper WHERE { " + wrote + "?paper m:citationCount ?c FILTER (?c > 40) }", decomposed},
		{"construct, figure 1", prefixes + "CONSTRUCT { ?paper akt:has-author ?a } WHERE { " + wrote +
			"?paper akt:has-author ?a FILTER (!(?a = <" + person + ">)) }", every},
		{"construct, cross-vocabulary", prefixes + "CONSTRUCT { ?paper akt:has-author ?a . ?paper m:citationCount ?c } WHERE { " + wrote +
			"?paper akt:has-author ?a . ?paper m:citationCount ?c }", decomposed},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			m := exampleFederation(t, nil, path.opts...)
			for _, c := range cases {
				if !slices.Contains(c.paths, path.name) {
					continue
				}
				got, err := mediatorGraph(m, QueryRequest{Query: c.text, Targets: path.targets})
				if err != nil {
					t.Errorf("%s: %v", c.name, err)
					continue
				}
				checkGraph(t, c.name, got, o.graph(t, c.text, nil))
			}
		})
	}
}

// checkAgainstOracle compares one answer with the oracle's.
func checkAgainstOracle(t *testing.T, name, text string, got, want [][]rdf.Term) {
	t.Helper()
	checkRequestAgainstOracle(t, name, text, 0, got, want)
}

// checkRequestAgainstOracle compares the answer to a request with a limit
// (0 for none) with the oracle's: the limit slices the query's answer
// further, its first rows under ORDER BY, any of them without.
func checkRequestAgainstOracle(t *testing.T, name, text string, limit int, got, want [][]rdf.Term) {
	t.Helper()
	q := sparql.MustParse(text)
	if len(want) == 0 && q.Offset <= 0 {
		t.Fatalf("%s: the oracle's answer is empty; the case tests nothing\n%s", name, text)
	}
	if limit > 0 && (q.Limit < 0 || limit < q.Limit) {
		q.Limit = limit
		if len(q.OrderBy) > 0 {
			want = want[:min(limit, len(want))]
		}
	}
	sliced := q.Limit >= 0 || q.Offset > 0
	if len(q.OrderBy) > 0 || !sliced {
		if len(q.OrderBy) == 0 {
			got, want = sortedRows(got), sortedRows(want)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d rows\n%v\nthe oracle's %d\n%v\n%s", name, len(got), got, len(want), want, text)
		}
		return
	}
	// A slice of an unordered answer: min(limit, n - offset) distinct rows
	// of the oracle's set.
	all := rowSet(want)
	n := len(all) - max(q.Offset, 0)
	if q.Limit >= 0 {
		n = min(n, q.Limit)
	}
	if n = max(n, 0); len(got) != n || len(rowSet(got)) != n {
		t.Errorf("%s: %d rows (%d distinct), want %d of the oracle's %d\n%s", name, len(got), len(rowSet(got)), n, len(all), text)
	}
	for key := range rowSet(got) {
		if !all[key] {
			t.Errorf("%s: row %s is not in the oracle's answer", name, key)
		}
	}
}

func rowKey(row []rdf.Term) string { return string(eval.AppendRowKey(nil, row)) }

func rowSet(rows [][]rdf.Term) map[string]bool {
	out := map[string]bool{}
	for _, r := range rows {
		out[rowKey(r)] = true
	}
	return out
}

func sortedRows(rows [][]rdf.Term) [][]rdf.Term {
	out := slices.Clone(rows)
	slices.SortFunc(out, func(a, b []rdf.Term) int { return strings.Compare(rowKey(a), rowKey(b)) })
	return out
}
