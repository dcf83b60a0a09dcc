package view

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/voidkb"
)

// fakeRunner materializes a fixed solution set and records its calls.
type fakeRunner struct {
	mu        sync.Mutex
	calls     int
	solutions []eval.Solution
	complete  bool
	datasets  []string // what each run reports it dispatched to
	err       error
}

func (r *fakeRunner) Materialize(ctx context.Context, q *sparql.Query, sourceOnt string) (*MaterializeResult, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	if r.err != nil {
		return nil, r.err
	}
	res := &MaterializeResult{Vars: []string{"p", "a", "c"}, Complete: r.complete, Datasets: r.datasets}
	res.Rows.Width = len(res.Vars)
	for _, sol := range r.solutions {
		res.Rows.Append(eval.Row{sol["p"], sol["a"], sol["c"]})
	}
	return res, nil
}

func (r *fakeRunner) Canonicalise(patterns []rdf.Triple) []rdf.Triple {
	return append([]rdf.Triple(nil), patterns...)
}

func (r *fakeRunner) callCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}

func mustParse(t *testing.T, text string) *sparql.Query {
	t.Helper()
	q, err := sparql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

const crossQuery = `PREFIX akt:<http://www.aktors.org/ontology/portal#>
PREFIX m:<http://metrics.example/ontology#>
SELECT ?p ?c WHERE { ?p akt:has-author ?a . ?p m:citationCount ?c }`

func crossSolutions(n int) []eval.Solution {
	out := make([]eval.Solution, n)
	for i := range out {
		out[i] = eval.Solution{
			"p": rdf.NewIRI(fmt.Sprintf("http://e/paper-%d", i)),
			"a": rdf.NewIRI(fmt.Sprintf("http://e/author-%d", i)),
			"c": rdf.NewInteger(int64(i)),
		}
	}
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSignatureModuloVariableRenaming(t *testing.T) {
	q1 := mustParse(t, crossQuery)
	q2 := mustParse(t, `PREFIX akt:<http://www.aktors.org/ontology/portal#>
PREFIX m:<http://metrics.example/ontology#>
SELECT ?x ?y WHERE { ?x m:citationCount ?y . ?x akt:has-author ?z }`)
	p1, ok1 := flatten(q1)
	p2, ok2 := flatten(q2)
	if !ok1 || !ok2 {
		t.Fatal("flatten failed")
	}
	s1, s2 := signature(p1), signature(p2)
	if s1 != s2 {
		t.Fatalf("renamed+reordered BGP changed signature:\n%s\n%s", s1, s2)
	}
	q3 := mustParse(t, `PREFIX akt:<http://www.aktors.org/ontology/portal#>
SELECT ?x WHERE { ?x akt:has-author ?z }`)
	p3, _ := flatten(q3)
	if signature(p3) == s1 {
		t.Fatal("different BGPs share a signature")
	}
	// A repeated variable is not the same shape as two distinct ones.
	q4 := mustParse(t, `PREFIX akt:<http://www.aktors.org/ontology/portal#>
PREFIX m:<http://metrics.example/ontology#>
SELECT ?x WHERE { ?x m:citationCount ?y . ?x akt:has-author ?x }`)
	p4, _ := flatten(q4)
	if signature(p4) == s1 {
		t.Fatal("repeated-variable BGP shares the distinct-variable signature")
	}
}

func TestFlattenRejectsNonCoverableShapes(t *testing.T) {
	for _, text := range []string{
		`SELECT ?s WHERE { { ?s ?p ?o } UNION { ?o ?p ?s } }`,
		`SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { ?s ?q ?v } }`,
		`ASK { ?s ?p ?o }`,
	} {
		q := mustParse(t, text)
		if _, ok := flatten(q); ok {
			t.Fatalf("flatten accepted %s", text)
		}
	}
	withFilter := mustParse(t, `SELECT ?s WHERE { ?s ?p ?o . FILTER (?o > 3) }`)
	if _, ok := flatten(withFilter); !ok {
		t.Fatal("flatten rejected a filtered BGP")
	}
}

func TestObserveMaterializesAtMinFrequency(t *testing.T) {
	datasets := []string{"http://e/ds1", "http://e/ds2"}
	r := &fakeRunner{solutions: crossSolutions(3), complete: true, datasets: datasets}
	m := NewManager(r, nil, Options{MinFrequency: 2})
	defer m.Close()
	q := mustParse(t, crossQuery)

	m.Observe(q, "http://src/", datasets[:1], 10, nil)
	if r.callCount() != 0 {
		t.Fatal("materialized before MinFrequency")
	}
	if _, hit := m.Answer(q, nil, nil); hit {
		t.Fatal("Answer hit before any view exists")
	}
	m.Observe(q, "http://src/", datasets[:1], 10, nil)
	waitFor(t, "view to materialize", func() bool {
		st := m.Stats()
		return len(st.Views) == 1 && st.Views[0].State == "ready"
	})
	st := m.Stats()
	v := st.Views[0]
	// Two patterns instantiated per solution: 3 solutions -> 6 triples.
	if v.Triples != 6 {
		t.Fatalf("view holds %d triples, want 6", v.Triples)
	}
	// The view's data sets are those its build dispatched to, not those
	// the miner saw.
	if len(v.Datasets) != 2 {
		t.Fatalf("view datasets = %v, want the build's %v", v.Datasets, datasets)
	}
	if v.Void.Triples != 6 || len(v.Void.PropertyPartitions) != 2 {
		t.Fatalf("synthetic voiD stats = %+v", v.Void)
	}

	// A renamed spelling of the same shape hits.
	q2 := mustParse(t, `PREFIX akt:<http://www.aktors.org/ontology/portal#>
PREFIX m:<http://metrics.example/ontology#>
SELECT ?x ?y WHERE { ?x m:citationCount ?y . ?x akt:has-author ?w }`)
	hv, hit := m.Answer(q2, nil, nil)
	if !hit {
		t.Fatal("renamed query missed the view")
	}
	if hv.ID() != v.ID {
		t.Fatalf("hit view %s, want %s", hv.ID(), v.ID)
	}
	// A request whose source set lacks one of the view's data sets does
	// not qualify; one holding both does.
	if _, hit := m.Answer(q2, nil, voidkb.Sources{datasets[0]: true}); hit {
		t.Fatal("view answered a source set missing one of its data sets")
	}
	if _, hit := m.Answer(q2, nil, voidkb.Sources{datasets[0]: true, datasets[1]: true, "http://e/ds3": true}); !hit {
		t.Fatal("view missed a source set holding its data sets")
	}
	// The matched query evaluates over the view's store, in its own
	// variable names: one row per materialized solution.
	rr, err := m.Rows(hv, q2)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for row := range rr.Seq {
		if !row[0].IsIRI() || row[1].Kind != rdf.KindLiteral {
			t.Fatalf("row %d = %v, want a paper IRI and a count", n, row)
		}
		n++
	}
	if fmt.Sprint(rr.Vars) != "[x y]" || n != 3 {
		t.Fatalf("view evaluation: vars %v, %d rows; want [x y], 3", rr.Vars, n)
	}
	// A match is not yet a hit: the serving layer confirms it only once
	// the view stream opens (CountHit) or records the fallback (CountMiss).
	if got := m.Stats(); got.Hits != 0 || got.Misses != 2 {
		t.Fatalf("hits/misses before CountHit = %d/%d, want 0/2", got.Hits, got.Misses)
	}
	m.CountHit(hv)
	if got := m.Stats(); got.Hits != 1 || got.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 1/2", got.Hits, got.Misses)
	}
	m.CountMiss()
	if got := m.Stats(); got.Misses != 3 {
		t.Fatalf("misses after CountMiss = %d, want 3", got.Misses)
	}
}

// TestRefineEstimateReadsDecomposerCell: the actual the decomposer
// observed for a fragment led by `?x rdf:type C` — its cell is (C, "??"),
// the class folded into the term — must sharpen a shape with that
// pattern. The view tier used to look the pattern up under (C, "?g") and
// never found it.
func TestRefineEstimateReadsDecomposerCell(t *testing.T) {
	const ds = "http://e/ds1"
	typePat := rdf.Triple{S: rdf.NewVar("x"), P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI("http://e/Paper")}
	cards := obs.NewCardStore(obs.CardStoreOptions{})
	term, shp := obs.PatternStatKey(typePat) // what decompose.Engine observes under
	cards.Observe(ds, term, shp, 10, 5000, cards.Epoch())
	m := NewManager(&fakeRunner{}, nil, Options{Cards: cards})
	defer m.Close()
	sh := &shape{patternsCanon: []rdf.Triple{typePat}, datasets: []string{ds}, estRows: 10}
	m.refineEstimate(sh)
	if sh.estRows != 5000 {
		t.Fatalf("estRows = %d, want the observed 5000 (cell %q %q not found)", sh.estRows, term, shp)
	}
}

func TestPartialAnswerNeverMaterializes(t *testing.T) {
	r := &fakeRunner{solutions: crossSolutions(2), complete: false}
	m := NewManager(r, nil, Options{MinFrequency: 1})
	defer m.Close()
	q := mustParse(t, crossQuery)
	m.Observe(q, "http://src/", []string{"http://e/ds1"}, 10, nil)
	waitFor(t, "materialize attempt", func() bool { return r.callCount() >= 1 })
	time.Sleep(20 * time.Millisecond)
	if st := m.Stats(); len(st.Views) != 0 {
		t.Fatal("partial federated answer produced a view")
	}
}

func TestMaxTriplesDisablesShape(t *testing.T) {
	r := &fakeRunner{solutions: crossSolutions(50), complete: true}
	m := NewManager(r, nil, Options{MinFrequency: 1, MaxTriples: 10})
	defer m.Close()
	q := mustParse(t, crossQuery)
	m.Observe(q, "http://src/", []string{"http://e/ds1"}, 1, nil)
	waitFor(t, "materialize attempt", func() bool { return r.callCount() >= 1 })
	time.Sleep(20 * time.Millisecond)
	if st := m.Stats(); len(st.Views) != 0 {
		t.Fatal("oversized result was materialized")
	}
	// The shape is disabled: more observations never retry.
	m.Observe(q, "http://src/", []string{"http://e/ds1"}, 1, nil)
	m.Observe(q, "http://src/", []string{"http://e/ds1"}, 1, nil)
	time.Sleep(20 * time.Millisecond)
	if r.callCount() != 1 {
		t.Fatalf("disabled shape re-materialized: %d calls", r.callCount())
	}
}

func TestInvalidateAllRefreshesView(t *testing.T) {
	r := &fakeRunner{solutions: crossSolutions(2), complete: true}
	m := NewManager(r, nil, Options{MinFrequency: 1})
	defer m.Close()
	q := mustParse(t, crossQuery)
	m.Observe(q, "http://src/", []string{"http://e/ds1", "http://e/ds2"}, 5, nil)
	waitFor(t, "view to materialize", func() bool { return len(m.Stats().Views) == 1 })

	// Invalidating: the view must refuse to answer (synchronously) and
	// then refresh in the background.
	before := r.callCount()
	m.InvalidateAll()
	// Note: the refresh loop races this check, so assert via the counter
	// epoch: a hit on a stale view is the bug being guarded against. The
	// stale marking itself is synchronous, so Answer between Invalidate
	// and refresh-completion either misses (stale) or hits a fresh view.
	waitFor(t, "view to refresh", func() bool {
		st := m.Stats()
		return st.Refreshes >= 1 && st.Views[0].State == "ready" && r.callCount() > before
	})
	if _, hit := m.Answer(q, nil, nil); !hit {
		t.Fatal("refreshed view does not answer")
	}
}

func TestInvalidateAllDropsMinedShapes(t *testing.T) {
	r := &fakeRunner{solutions: crossSolutions(1), complete: true}
	m := NewManager(r, nil, Options{MinFrequency: 3})
	defer m.Close()
	q := mustParse(t, crossQuery)
	m.Observe(q, "http://src/", []string{"http://e/ds1"}, 5, nil)
	if st := m.Stats(); st.MinedShapes != 1 {
		t.Fatalf("mined shapes = %d, want 1", st.MinedShapes)
	}
	m.InvalidateAll()
	if st := m.Stats(); st.MinedShapes != 0 {
		t.Fatalf("InvalidateAll kept %d mined shapes", st.MinedShapes)
	}
}

func TestNilManagerIsSafe(t *testing.T) {
	var m *Manager
	m.Close()
	m.InvalidateAll()
	m.Observe(nil, "", nil, 0, nil)
	if _, hit := m.Answer(nil, nil, nil); hit {
		t.Fatal("nil manager answered")
	}
	if st := m.Stats(); len(st.Views) != 0 {
		t.Fatal("nil manager has views")
	}
}

// swapCanonRunner is a fakeRunner whose canonicalisation rule can move
// mid-test, like a live alignment KB update moving a representative.
type swapCanonRunner struct {
	fakeRunner
	canonMu sync.Mutex
	canon   func(rdf.Term) rdf.Term
}

func (r *swapCanonRunner) term(x rdf.Term) rdf.Term {
	r.canonMu.Lock()
	defer r.canonMu.Unlock()
	return r.canon(x)
}

func (r *swapCanonRunner) Canonicalise(patterns []rdf.Triple) []rdf.Triple {
	return canonPatterns(patterns, r.term)
}

// TestRefreshRekeysTemplatesWithSignature guards the soundness hole the
// review caught: when an alignment update moves a ground IRI's
// representative, the refreshed view must instantiate its stored triples
// from the NEW canonical templates — the ones its new signature is built
// from — or a signature match would probe a store full of old
// representatives and silently answer empty.
func TestRefreshRekeysTemplatesWithSignature(t *testing.T) {
	const alice = "http://a.example/id/alice"
	const bob = "http://b.example/id/bob"
	r := &swapCanonRunner{fakeRunner: fakeRunner{solutions: crossSolutions(1), complete: true}}
	rep := alice
	r.canon = func(x rdf.Term) rdf.Term {
		if x.Kind == rdf.KindIRI && (x.Value == alice || x.Value == bob) {
			return rdf.NewIRI(rep)
		}
		return x
	}
	m := NewManager(r, nil, Options{MinFrequency: 1})
	defer m.Close()
	qa := mustParse(t, `PREFIX akt:<http://www.aktors.org/ontology/portal#>
PREFIX m:<http://metrics.example/ontology#>
SELECT ?p ?c WHERE { ?p akt:has-author <http://a.example/id/alice> . ?p m:citationCount ?c }`)
	m.Observe(qa, "http://src/", []string{"http://e/ds1"}, 1, r.term)
	waitFor(t, "view to materialize", func() bool { return len(m.Stats().Views) == 1 })

	hasAuthor := rdf.NewIRI("http://www.aktors.org/ontology/portal#has-author")
	objCount := func(v *View, obj string) int {
		return v.store.Count(rdf.Triple{S: rdf.NewVar("x"), P: hasAuthor, O: rdf.NewIRI(obj)})
	}
	v1, hit := m.Answer(qa, r.term, nil)
	if !hit {
		t.Fatal("fresh view missed")
	}
	if objCount(v1, alice) == 0 {
		t.Fatal("fresh view store lacks the current representative")
	}

	// The alignment KB moves the representative; views are invalidated.
	r.canonMu.Lock()
	rep = bob
	r.canonMu.Unlock()
	m.InvalidateAll()
	waitFor(t, "view to refresh", func() bool {
		st := m.Stats()
		return st.Refreshes >= 1 && len(st.Views) == 1 && st.Views[0].State == "ready"
	})
	v2, hit := m.Answer(qa, r.term, nil)
	if !hit {
		t.Fatal("refreshed view missed under the new canonicalisation")
	}
	if objCount(v2, bob) == 0 {
		t.Fatal("refreshed store carries old representatives: signature matches but triples cannot")
	}
	if objCount(v2, alice) != 0 {
		t.Fatal("refreshed store still holds the retired representative")
	}
}

// TestObserveAfterCloseIsNoop guards the Close/Observe race: once Close
// has begun, Observe must not wg.Add (WaitGroup misuse) nor spawn a
// build.
func TestObserveAfterCloseIsNoop(t *testing.T) {
	r := &fakeRunner{solutions: crossSolutions(1), complete: true}
	m := NewManager(r, nil, Options{MinFrequency: 1})
	m.Close()
	q := mustParse(t, crossQuery)
	m.Observe(q, "http://src/", []string{"http://e/ds1"}, 1, nil)
	time.Sleep(20 * time.Millisecond)
	if n := r.callCount(); n != 0 {
		t.Fatalf("Observe after Close materialized %d times", n)
	}
}

func TestCanonicalisationAlignsSpellings(t *testing.T) {
	// Two spellings of one ground entity must share a view once the
	// canonicaliser maps them to the same representative.
	canon := func(t rdf.Term) rdf.Term {
		if t.Value == "http://mirror.example/id/alice" {
			return rdf.NewIRI("http://a.example/id/alice")
		}
		return t
	}
	r := &fakeRunner{solutions: crossSolutions(1), complete: true}
	m := NewManager(r, nil, Options{MinFrequency: 1})
	defer m.Close()
	qa := mustParse(t, `PREFIX akt:<http://www.aktors.org/ontology/portal#>
PREFIX m:<http://metrics.example/ontology#>
SELECT ?p ?c WHERE { ?p akt:has-author <http://a.example/id/alice> . ?p m:citationCount ?c }`)
	m.Observe(qa, "http://src/", []string{"http://e/ds1"}, 1, canon)
	waitFor(t, "view to materialize", func() bool { return len(m.Stats().Views) == 1 })
	qb := mustParse(t, `PREFIX akt:<http://www.aktors.org/ontology/portal#>
PREFIX m:<http://metrics.example/ontology#>
SELECT ?p ?c WHERE { ?p akt:has-author <http://mirror.example/id/alice> . ?p m:citationCount ?c }`)
	if _, hit := m.Answer(qb, canon, nil); !hit {
		t.Fatal("sameAs-equivalent spelling missed the view")
	}
	if _, hit := m.Answer(qb, nil, nil); hit {
		t.Fatal("uncanonicalised spelling hit the view (unsound match)")
	}
}
