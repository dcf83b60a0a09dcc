package view

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
)

// fakeRunner materializes the first rows answers of crossQuery's shape,
// projected as the covering query asks, and records its calls. While gate
// is set, each build first reports itself on started and then blocks
// until the test sends on gate or the build's context ends.
type fakeRunner struct {
	mu       sync.Mutex
	calls    int
	rows     int
	complete bool
	datasets []string // what each run reports it dispatched to
	err      error
	gate     chan struct{}
	started  chan struct{}
}

func (r *fakeRunner) Materialize(ctx context.Context, q *sparql.Query, _ []string) (*MaterializeResult, error) {
	r.mu.Lock()
	gate, started := r.gate, r.started
	r.mu.Unlock()
	if gate != nil {
		started <- struct{}{}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	if r.err != nil {
		return nil, r.err
	}
	res := &MaterializeResult{Vars: q.Projection(), Complete: r.complete, Datasets: r.datasets}
	res.Rows.Width = len(res.Vars)
	row := make(eval.Row, len(res.Vars))
	for i := range r.rows {
		for j, v := range res.Vars {
			row[j] = crossTerm(v, i)
		}
		res.Rows.Append(row)
	}
	return res, nil
}

func (r *fakeRunner) Canonical(t rdf.Term) rdf.Term { return t }

// set changes what the next builds answer under the runner's lock.
func (r *fakeRunner) set(f func(r *fakeRunner)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f(r)
}

func (r *fakeRunner) callCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}

// bgp parses a SELECT of a filtered BGP and returns its triple patterns,
// the shape a fragment hands the view tier.
func bgp(t *testing.T, text string) []rdf.Triple {
	t.Helper()
	q, err := sparql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	var out []rdf.Triple
	for _, el := range q.Where.Elements {
		if b, ok := el.(*sparql.BGP); ok {
			out = append(out, b.Patterns...)
		}
	}
	return out
}

const crossQuery = `PREFIX akt:<http://www.aktors.org/ontology/portal#>
PREFIX m:<http://metrics.example/ontology#>
SELECT ?p ?c WHERE { ?p akt:has-author ?a . ?p m:citationCount ?c }`

// crossTerm is what the i-th answer of crossQuery's shape binds to its
// variable v: a paper, its author, its citation count.
func crossTerm(v string, i int) rdf.Term {
	switch v {
	case "p":
		return rdf.NewIRI(fmt.Sprintf("http://e/paper-%d", i))
	case "a":
		return rdf.NewIRI(fmt.Sprintf("http://e/author-%d", i))
	}
	return rdf.NewInteger(int64(i))
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

// answer is Answer under a background context, a hit reported as a bool.
func answer(m *Manager, patterns []rdf.Triple, datasets []string) (*Hit, bool) {
	h, _ := m.Answer(context.Background(), patterns, datasets)
	return h, h != nil
}

// read answers the fragment from its view and reads the rows, which
// counts the hit that keeps the view rebuilt rather than dropped; it
// returns the view's id.
func read(t *testing.T, m *Manager, patterns []rdf.Triple, datasets []string) string {
	t.Helper()
	h, hit := answer(m, patterns, datasets)
	if !hit {
		t.Fatal("the view does not answer")
	}
	if _, err := h.Fetch(context.Background(), nil, func(eval.Row) bool { return true }); err != nil {
		t.Fatal(err)
	}
	return h.View.ID()
}

// signature is appendSignature's signature as a string.
func signature(patterns []rdf.Triple) (string, []string) {
	sig, vars := appendSignature(nil, patterns)
	return string(sig), vars
}

func TestSignatureModuloVariableRenaming(t *testing.T) {
	p1 := bgp(t, crossQuery)
	p2 := bgp(t, `PREFIX akt:<http://www.aktors.org/ontology/portal#>
PREFIX m:<http://metrics.example/ontology#>
SELECT ?x ?y WHERE { ?x m:citationCount ?y . ?x akt:has-author ?z }`)
	s1, v1 := signature(p1)
	s2, v2 := signature(p2)
	if s1 != s2 {
		t.Fatalf("renamed+reordered BGP changed signature:\n%s\n%s", s1, s2)
	}
	// The variable orders line up under the renaming: ?p is ?x, ?a is ?z
	// and ?c is ?y.
	renamed := map[string]string{"p": "x", "a": "z", "c": "y"}
	if len(v1) != 3 || len(v2) != 3 {
		t.Fatalf("signature variables %v, %v; want three each", v1, v2)
	}
	for i, v := range v1 {
		if renamed[v] != v2[i] {
			t.Fatalf("signature variables %v and %v do not correspond under the renaming", v1, v2)
		}
	}
	p3 := bgp(t, `PREFIX akt:<http://www.aktors.org/ontology/portal#>
SELECT ?x WHERE { ?x akt:has-author ?z }`)
	if s3, _ := signature(p3); s3 == s1 {
		t.Fatal("different BGPs share a signature")
	}
	// A repeated variable is not the same shape as two distinct ones.
	p4 := bgp(t, `PREFIX akt:<http://www.aktors.org/ontology/portal#>
PREFIX m:<http://metrics.example/ontology#>
SELECT ?x WHERE { ?x m:citationCount ?y . ?x akt:has-author ?x }`)
	if s4, _ := signature(p4); s4 == s1 {
		t.Fatal("repeated-variable BGP shares the distinct-variable signature")
	}
	// Patterns alike but for their variables sort by join structure: a
	// chain written in either order is one shape.
	chain := func(text string) string {
		sig, _ := signature(bgp(t, "PREFIX akt:<http://www.aktors.org/ontology/portal#>\nSELECT * WHERE { "+text+" }"))
		return sig
	}
	if a, b := chain("?a akt:has-author ?b . ?b akt:has-author ?c"), chain("?y akt:has-author ?z . ?x akt:has-author ?y"); a != b {
		t.Fatalf("one chain, two signatures:\n%s\n%s", a, b)
	}
}

func TestObserveMaterializesAtMinFrequency(t *testing.T) {
	datasets := []string{"http://e/ds1", "http://e/ds2"}
	r := &fakeRunner{rows: 3, complete: true, datasets: datasets}
	m := NewManager(r, Options{MinFrequency: 2})
	defer m.Close()
	q := bgp(t, crossQuery)

	m.Observe(q, datasets[:1], 10)
	if r.callCount() != 0 {
		t.Fatal("materialized before MinFrequency")
	}
	if _, hit := answer(m, q, datasets); hit {
		t.Fatal("Answer hit before any view exists")
	}
	m.Observe(q, datasets[:1], 10)
	waitFor(t, "view to materialize", func() bool {
		st := m.Stats()
		return len(st.Views) == 1 && st.Views[0].State == "ready"
	})
	st := m.Stats()
	v := st.Views[0]
	// One row per materialized solution.
	if v.Rows != 3 || st.Rows != 3 {
		t.Fatalf("view holds %d rows (%d in all), want 3", v.Rows, st.Rows)
	}
	// The view's data sets are those its build dispatched to, not those
	// the miner saw.
	if len(v.Datasets) != 2 {
		t.Fatalf("view datasets = %v, want the build's %v", v.Datasets, datasets)
	}

	// A renamed spelling of the same shape hits.
	q2 := bgp(t, `PREFIX akt:<http://www.aktors.org/ontology/portal#>
PREFIX m:<http://metrics.example/ontology#>
SELECT ?x ?y WHERE { ?x m:citationCount ?y . ?x akt:has-author ?w }`)
	h, hit := answer(m, q2, []string{datasets[1], datasets[0]})
	if !hit {
		t.Fatal("renamed query missed the view")
	}
	if h.View.ID() != v.ID {
		t.Fatalf("hit view %s, want %s", h.View.ID(), v.ID)
	}
	// A fragment whose targets are not exactly the view's data sets does
	// not qualify: the view's rows would hold another union of answers.
	if _, hit := answer(m, q2, datasets[:1]); hit {
		t.Fatal("view answered a fragment over one of its two data sets")
	}
	if _, hit := answer(m, q2, append(slices.Clone(datasets), "http://e/ds3")); hit {
		t.Fatal("view answered a fragment over a third data set besides its own")
	}
	// The rows bind the matched query's own variables: one row per
	// materialized solution, ?x a paper, ?w its author, ?y its count.
	if h.Rows.N != 3 || len(h.Vars) != 3 {
		t.Fatalf("hit: %d rows over %v; want 3 over ?x ?y ?w", h.Rows.N, h.Vars)
	}
	for i := range h.Rows.N {
		row := h.Rows.Row(i)
		x := row[slices.Index(h.Vars, "x")]
		w := row[slices.Index(h.Vars, "w")]
		y := row[slices.Index(h.Vars, "y")]
		if x.Value != "http://e/paper-"+y.Value || w.Value != "http://e/author-"+y.Value {
			t.Fatalf("row %d = %v over %v: its columns are not the query's variables", i, row, h.Vars)
		}
	}
	// A match is not yet a hit: it is one when the plan reads the rows
	// (Fetch). Each fragment the endpoints answered, which Observe mines,
	// was a miss.
	if got := m.Stats(); got.Hits != 0 || got.Misses != 2 {
		t.Fatalf("hits/misses before the rows are read = %d/%d, want 0/2", got.Hits, got.Misses)
	}
	if n, err := h.Fetch(context.Background(), nil, func(eval.Row) bool { return true }); err != nil || n != h.Rows.N {
		t.Fatalf("Fetch yielded %d of %d rows: %v", n, h.Rows.N, err)
	}
	if got := m.Stats(); got.Hits != 1 || got.Misses != 2 || got.Views[0].Hits != 1 {
		t.Fatalf("hits/misses = %d/%d (view %d), want 1/2 (1)", got.Hits, got.Misses, got.Views[0].Hits)
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
	m := NewManager(&fakeRunner{}, Options{Cards: cards})
	defer m.Close()
	sh := &shape{patternsCanon: []rdf.Triple{typePat}, datasets: []string{ds}, estRows: 10}
	m.refineEstimate(sh)
	if sh.estRows != 5000 {
		t.Fatalf("estRows = %d, want the observed 5000 (cell %q %q not found)", sh.estRows, term, shp)
	}
}

func TestPartialAnswerNeverMaterializes(t *testing.T) {
	r := &fakeRunner{rows: 2, complete: false}
	m := NewManager(r, Options{MinFrequency: 1})
	defer m.Close()
	q := bgp(t, crossQuery)
	m.Observe(q, []string{"http://e/ds1"}, 10)
	waitFor(t, "materialize attempt", func() bool { return r.callCount() >= 1 })
	time.Sleep(20 * time.Millisecond)
	if st := m.Stats(); len(st.Views) != 0 {
		t.Fatal("partial federated answer produced a view")
	}
}

// TestRowCapDisablesShape: a shape whose build answers more than
// eval.MaxHeldRows rows is disabled rather than half-stored, and so is
// one whose estimate exceeds the cap, before any build.
func TestRowCapDisablesShape(t *testing.T) {
	r := &fakeRunner{rows: eval.MaxHeldRows + 1, complete: true}
	m := NewManager(r, Options{MinFrequency: 1})
	defer m.Close()
	q := bgp(t, crossQuery)
	m.Observe(q, []string{"http://e/ds1"}, 1)
	waitFor(t, "materialize attempt", func() bool { return r.callCount() >= 1 })
	time.Sleep(20 * time.Millisecond)
	if st := m.Stats(); len(st.Views) != 0 {
		t.Fatal("oversized result was materialized")
	}
	// The shape is disabled: more observations never retry.
	m.Observe(q, []string{"http://e/ds1"}, 1)
	m.Observe(q, []string{"http://e/ds1"}, 1)
	time.Sleep(20 * time.Millisecond)
	if r.callCount() != 1 {
		t.Fatalf("disabled shape re-materialized: %d calls", r.callCount())
	}

	estimated := bgp(t, `PREFIX akt:<http://www.aktors.org/ontology/portal#>
SELECT ?p WHERE { ?p akt:has-author ?a }`)
	m.Observe(estimated, []string{"http://e/ds1"}, eval.MaxHeldRows+1)
	time.Sleep(20 * time.Millisecond)
	if r.callCount() != 1 {
		t.Fatalf("a shape estimated past the row cap was built: %d calls", r.callCount())
	}
}

func TestInvalidateAllRefreshesView(t *testing.T) {
	r := &fakeRunner{rows: 2, complete: true}
	m := NewManager(r, Options{MinFrequency: 1})
	defer m.Close()
	q := bgp(t, crossQuery)
	m.Observe(q, []string{"http://e/ds1", "http://e/ds2"}, 5)
	waitFor(t, "view to materialize", func() bool { return len(m.Stats().Views) == 1 })
	// A hit since its build is what gets the view rebuilt, not dropped.
	read(t, m, q, nil)

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
	if _, hit := answer(m, q, nil); !hit {
		t.Fatal("refreshed view does not answer")
	}
}

// TestInvalidateDropsColdViews: an invalidation drops, synchronously, the
// view nobody hit since its build — its slot freed, its shape mined anew —
// and rebuilds the one a fragment read.
func TestInvalidateDropsColdViews(t *testing.T) {
	r := &fakeRunner{rows: 2, complete: true}
	m := NewManager(r, Options{MinFrequency: 1})
	defer m.Close()
	hot := bgp(t, crossQuery)
	cold := bgp(t, `PREFIX akt:<http://www.aktors.org/ontology/portal#>
SELECT ?p ?a WHERE { ?p akt:has-author ?a }`)
	m.Observe(hot, nil, 5)
	m.Observe(cold, nil, 5)
	waitFor(t, "two views", func() bool { return len(m.Stats().Views) == 2 })
	hotID := read(t, m, hot, nil)

	m.InvalidateAll()
	st := m.Stats()
	if len(st.Views) != 1 || st.Views[0].ID != hotID || st.Evictions != 1 {
		t.Fatalf("after the invalidation: views %+v, %d evictions; want %s alone, 1 eviction", st.Views, st.Evictions, hotID)
	}
	if _, reason := m.Answer(context.Background(), cold, nil); reason != ReasonAbsent {
		t.Fatalf("the dropped view's shape: reason %q, want %q", reason, ReasonAbsent)
	}
	waitFor(t, "the hit view to be rebuilt", func() bool {
		st := m.Stats()
		return st.Refreshes == 1 && st.Views[0].State == "ready"
	})
	m.Observe(cold, nil, 5)
	waitFor(t, "the dropped shape to be built again", func() bool { return len(m.Stats().Views) == 2 })
	if _, hit := answer(m, cold, nil); !hit {
		t.Fatal("the shape built again does not answer")
	}
	// A refresh that comes due by TTL drops a view nobody hit as well.
	ttl := NewManager(&fakeRunner{rows: 1, complete: true}, Options{MinFrequency: 1, RefreshTTL: 10 * time.Millisecond})
	defer ttl.Close()
	ttl.Observe(cold, nil, 5)
	waitFor(t, "the TTL refresh to drop the view nobody hit", func() bool {
		st := ttl.Stats()
		return st.Evictions == 1 && len(st.Views) == 0
	})
}

// staleHotView returns a manager over a fakeRunner holding one view of
// crossQuery, read once (2 rows), made stale by an invalidation whose
// rebuild (3 rows) is blocked in the runner until the test sends on its
// gate; and the goroutine count before the manager started.
func staleHotView(t *testing.T) (*Manager, *fakeRunner, []rdf.Triple, int) {
	t.Helper()
	base := runtime.NumGoroutine()
	r := &fakeRunner{rows: 2, complete: true}
	m := NewManager(r, Options{MinFrequency: 1})
	q := bgp(t, crossQuery)
	m.Observe(q, nil, 5)
	waitFor(t, "view to materialize", func() bool {
		st := m.Stats()
		return len(st.Views) == 1 && st.Views[0].State == "ready"
	})
	read(t, m, q, nil)
	r.set(func(r *fakeRunner) {
		r.gate, r.started = make(chan struct{}), make(chan struct{}, 4)
		r.rows = 3
	})
	m.InvalidateAll()
	built(t, r)
	return m, r, q, base
}

// built waits for r to report a build that blocked on its gate.
func built(t *testing.T, r *fakeRunner) {
	t.Helper()
	select {
	case <-r.started:
	case <-time.After(5 * time.Second):
		t.Fatal("no build started")
	}
}

// answered is what Answer returned to a waiter.
type answered struct {
	hit    *Hit
	reason string
}

// waiter asks Answer for q under ctx on a goroutine of its own and
// delivers what it returned; it checks the call is still waiting a
// moment later.
func waiter(t *testing.T, ctx context.Context, m *Manager, q []rdf.Triple) <-chan answered {
	t.Helper()
	out := make(chan answered, 1)
	go func() {
		h, reason := m.Answer(ctx, q, nil)
		out <- answered{h, reason}
	}()
	select {
	case a := <-out:
		t.Fatalf("Answer on a view with a rebuild pending returned %+v at once", a)
	case <-time.After(20 * time.Millisecond):
	}
	return out
}

// released returns what the waiter got once released.
func released(t *testing.T, out <-chan answered) answered {
	t.Helper()
	select {
	case a := <-out:
		return a
	case <-time.After(5 * time.Second):
		t.Fatal("the waiter was never released")
	}
	return answered{}
}

// missed checks the waiter was released to a miss for one of the
// reasons, not to the old build's rows.
func missed(t *testing.T, out <-chan answered, reasons ...string) {
	t.Helper()
	if a := released(t, out); a.hit != nil || !slices.Contains(reasons, a.reason) {
		t.Fatalf("the released waiter got %+v, want a miss for one of %v", a, reasons)
	}
}

// rebuilt checks the waiter was answered from the rebuild's 3 rows.
func rebuilt(t *testing.T, out <-chan answered) {
	t.Helper()
	if a := released(t, out); a.hit == nil || a.hit.Rows.N != 3 || a.reason != ReasonWaited {
		t.Fatalf("the waiter got %+v, want the rebuild's 3 rows", a)
	}
}

// closed closes m and checks every goroutine the case started is gone.
func closed(t *testing.T, m *Manager, base int) {
	t.Helper()
	m.Close()
	waitFor(t, "the goroutine count to return to its baseline", func() bool { return runtime.NumGoroutine() <= base })
}

// TestWaitReleases: a fragment that meets a stale view waits for its
// pending rebuild, and is released — to a miss, never the old rows — by
// its context, by Close, by a partial build and by an invalidation that
// discards the build; answered by a build published at the current state.
func TestWaitReleases(t *testing.T) {
	t.Run("context", func(t *testing.T) {
		m, _, q, base := staleHotView(t)
		ctx, cancel := context.WithCancel(context.Background())
		out := waiter(t, ctx, m, q)
		cancel()
		missed(t, out, ReasonStale)
		closed(t, m, base)
	})
	t.Run("close", func(t *testing.T) {
		m, _, q, base := staleHotView(t)
		out := waiter(t, context.Background(), m, q)
		m.Close()
		missed(t, out, ReasonStale, ReasonAbsent)
		closed(t, m, base)
	})
	t.Run("partial build", func(t *testing.T) {
		m, r, q, base := staleHotView(t)
		out := waiter(t, context.Background(), m, q)
		r.set(func(r *fakeRunner) { r.complete = false })
		r.gate <- struct{}{}
		missed(t, out, ReasonStale)
		closed(t, m, base)
	})
	t.Run("invalidation during the rebuild", func(t *testing.T) {
		m, r, q, base := staleHotView(t)
		out := waiter(t, context.Background(), m, q)
		m.InvalidateAll()
		missed(t, out, ReasonStale)
		// The discarded build is run again for the current state, and a
		// fragment that waits for that one is answered from it.
		out = waiter(t, context.Background(), m, q)
		r.gate <- struct{}{} // the discarded build
		built(t, r)
		r.gate <- struct{}{} // its successor
		rebuilt(t, out)
		closed(t, m, base)
	})
	t.Run("answered by the rebuild", func(t *testing.T) {
		m, r, q, base := staleHotView(t)
		ctx, tr := obs.NewTrace(context.Background(), "query")
		out := waiter(t, ctx, m, q)
		r.gate <- struct{}{}
		rebuilt(t, out)
		tr.Finish()
		match := tr.View().Root.Children
		if len(match) != 1 || match[0].Name != "view.match" || match[0].Attrs["reason"] != ReasonWaited ||
			len(match[0].Children) != 1 || match[0].Children[0].Name != "view.wait" {
			t.Fatalf("trace %+v, want a view.match span with reason %q over a view.wait span", match, ReasonWaited)
		}
		closed(t, m, base)
	})
}

func TestInvalidateAllDropsMinedShapes(t *testing.T) {
	r := &fakeRunner{rows: 1, complete: true}
	m := NewManager(r, Options{MinFrequency: 3})
	defer m.Close()
	q := bgp(t, crossQuery)
	m.Observe(q, []string{"http://e/ds1"}, 5)
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
	m.Observe(nil, nil, 0)
	if _, hit := answer(m, nil, nil); hit {
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

func (r *swapCanonRunner) swap(canon func(rdf.Term) rdf.Term) {
	r.canonMu.Lock()
	defer r.canonMu.Unlock()
	r.canon = canon
}

func (r *swapCanonRunner) Canonical(t rdf.Term) rdf.Term {
	r.canonMu.Lock()
	defer r.canonMu.Unlock()
	return r.canon(t)
}

// TestRefreshRekeysTemplatesWithSignature: when an alignment update moves
// a ground IRI's representative, the refreshed view is keyed under the
// signature of the NEW canonical shape — a query spelled either way finds
// it, one canonicalised by the retired rule does not — and its rows are
// rebuilt in that signature's variable order.
func TestRefreshRekeysTemplatesWithSignature(t *testing.T) {
	const alice = "http://a.example/id/alice"
	const bob = "http://b.example/id/bob"
	to := func(rep string) func(rdf.Term) rdf.Term { // both spellings to rep
		return func(x rdf.Term) rdf.Term {
			if x.Kind == rdf.KindIRI && (x.Value == alice || x.Value == bob) {
				return rdf.NewIRI(rep)
			}
			return x
		}
	}
	r := &swapCanonRunner{fakeRunner: fakeRunner{rows: 1, complete: true}, canon: to(alice)}
	m := NewManager(r, Options{MinFrequency: 1})
	defer m.Close()
	qa := bgp(t, `PREFIX akt:<http://www.aktors.org/ontology/portal#>
PREFIX m:<http://metrics.example/ontology#>
SELECT ?p ?c WHERE { ?p akt:has-author <http://a.example/id/alice> . ?p m:citationCount ?c }`)
	qb := bgp(t, `PREFIX akt:<http://www.aktors.org/ontology/portal#>
PREFIX m:<http://metrics.example/ontology#>
SELECT ?p ?c WHERE { ?p akt:has-author <http://b.example/id/bob> . ?p m:citationCount ?c }`)
	m.Observe(qa, []string{"http://e/ds1"}, 1)
	waitFor(t, "view to materialize", func() bool { return len(m.Stats().Views) == 1 })

	if _, hit := answer(m, qa, nil); !hit {
		t.Fatal("fresh view missed")
	}
	if _, hit := answer(m, qb, nil); !hit {
		t.Fatal("fresh view missed the other spelling")
	}
	read(t, m, qa, nil) // a hit: the invalidation rebuilds the view

	// The alignment KB moves the representative; views are invalidated.
	r.swap(to(bob))
	m.InvalidateAll()
	waitFor(t, "view to refresh", func() bool {
		st := m.Stats()
		return st.Refreshes >= 1 && len(st.Views) == 1 && st.Views[0].State == "ready"
	})
	for _, q := range [][]rdf.Triple{qa, qb} {
		h, hit := answer(m, q, nil)
		if !hit {
			t.Fatal("refreshed view missed under the new canonicalisation")
		}
		if h.Rows.N != 1 || !slices.Equal(h.Vars, []string{"p", "c"}) {
			t.Fatalf("refreshed view: %d rows over %v, want 1 over [p c]", h.Rows.N, h.Vars)
		}
		r.swap(to(alice)) // the retired rule
		if _, hit := answer(m, q, nil); hit {
			t.Fatal("the refreshed view is still keyed under the retired representative")
		}
		r.swap(to(bob))
	}
	if sig := m.Stats().Views[0].Signature; !strings.Contains(sig, bob) || strings.Contains(sig, alice) {
		t.Fatalf("refreshed signature %s, want it over %s alone", sig, bob)
	}
}

// TestObserveAfterCloseIsNoop guards the Close/Observe race: once Close
// has begun, Observe must not wg.Add (WaitGroup misuse) nor spawn a
// build.
func TestObserveAfterCloseIsNoop(t *testing.T) {
	r := &fakeRunner{rows: 1, complete: true}
	m := NewManager(r, Options{MinFrequency: 1})
	m.Close()
	q := bgp(t, crossQuery)
	m.Observe(q, []string{"http://e/ds1"}, 1)
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
	r := &swapCanonRunner{fakeRunner: fakeRunner{rows: 1, complete: true}, canon: canon}
	m := NewManager(r, Options{MinFrequency: 1})
	defer m.Close()
	qa := bgp(t, `PREFIX akt:<http://www.aktors.org/ontology/portal#>
PREFIX m:<http://metrics.example/ontology#>
SELECT ?p ?c WHERE { ?p akt:has-author <http://a.example/id/alice> . ?p m:citationCount ?c }`)
	m.Observe(qa, []string{"http://e/ds1"}, 1)
	waitFor(t, "view to materialize", func() bool { return len(m.Stats().Views) == 1 })
	qb := bgp(t, `PREFIX akt:<http://www.aktors.org/ontology/portal#>
PREFIX m:<http://metrics.example/ontology#>
SELECT ?p ?c WHERE { ?p akt:has-author <http://mirror.example/id/alice> . ?p m:citationCount ?c }`)
	if _, hit := answer(m, qb, nil); !hit {
		t.Fatal("sameAs-equivalent spelling missed the view")
	}
	r.swap(func(t rdf.Term) rdf.Term { return t })
	if _, hit := answer(m, qb, nil); hit {
		t.Fatal("uncanonicalised spelling hit the view (unsound match)")
	}
}
