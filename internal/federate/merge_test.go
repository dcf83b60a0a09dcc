package federate

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparqlrw/internal/coref"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/raceflag"
	"sparqlrw/internal/rdf"
)

// batchOf packs rows of one width into a batch, as a dispatch worker does.
func batchOf(rows ...eval.Row) eval.RowBuf {
	b := eval.RowBuf{Width: len(rows[0])}
	for _, r := range rows {
		b.Append(r)
	}
	return b
}

// TestMergerDeduplicatesInPlace: merge owns the batch it is given and
// compacts the first-seen rows to its front without copying the batch.
func TestMergerDeduplicatesInPlace(t *testing.T) {
	m := &merger{}
	a1, x, y := rdf.NewIRI("http://a/1"), rdf.NewLiteral("x"), rdf.NewLiteral("y")
	batch := batchOf(eval.Row{a1, x}, eval.Row{a1, x}, eval.Row{a1, y})
	out := m.merge(batch)
	if want := []rdf.Term{a1, x, a1, y}; out.N != 2 || !reflect.DeepEqual(out.Terms, want) {
		t.Fatalf("merged batch = %+v, want the two rows %v", out, want)
	}
	if got := batch.Terms[:4]; !reflect.DeepEqual(got, out.Terms) || &batch.Terms[0] != &out.Terms[0] {
		t.Fatalf("batch not compacted in place: %v", got)
	}
	if again := m.merge(batchOf(eval.Row{a1, y})); again.N != 0 || m.duplicates != 2 {
		t.Fatalf("a batch of duplicates left %d rows, %d duplicates counted in all", again.N, m.duplicates)
	}
}

// slabStream records the address of every row it is asked to decode
// into; oneStream serves it for any endpoint.
type slabStream struct {
	*fakeStream
	rows map[*rdf.Term]bool
}

func (s *slabStream) NextRow(vars []string, row eval.Row) error {
	s.rows[&row[0]] = true
	return s.fakeStream.NextRow(vars, row)
}

type oneStream struct{ eval.RowStream }

func (c oneStream) SelectRowStream(context.Context, string, string) (eval.RowStream, error) {
	return c.RowStream, nil
}

// TestDispatchCanonicalisesAsItDecodes: a worker's batches reach the
// fan-out with every IRI already its owl:sameAs representative, rewritten
// in the slab the row decoded into; literals pass through.
func TestDispatchCanonicalisesAsItDecodes(t *testing.T) {
	cs := coref.NewStore()
	cs.Add("http://b/1", "http://a/1")
	ctx := context.Background()
	ss := &slabStream{rows: map[*rdf.Term]bool{}, fakeStream: &fakeStream{ctx: ctx, sols: []eval.Solution{
		{"s": rdf.NewIRI("http://b/1"), "o": rdf.NewLiteral("http://b/1")},
		{"s": rdf.NewIRI("http://a/1"), "o": rdf.NewIRI("http://b/1")},
	}}}
	e := NewExecutor(oneStream{ss}, nil, cs, fastOpts())
	dst := &sink{batches: make(chan batch, batchDepth)}
	pd := newPausableDeadline(ctx, time.Second)
	defer pd.Stop()
	rows, _, _, err := e.dispatch(pd, ctx, "http://e/sparql", reqText, []string{"s", "o"}, lane{sink: dst}, pd)
	close(dst.batches)
	if err != nil || rows != 2 {
		t.Fatalf("dispatch = %d rows, %v", rows, err)
	}
	var got []rdf.Term
	for b := range dst.batches {
		for i := range b.N {
			if !ss.rows[&b.Row(i)[0]] {
				t.Fatalf("row %v reached the fan-out outside the slab it decoded into", b.Row(i))
			}
		}
		got = append(got, b.Terms...)
	}
	a1 := rdf.NewIRI("http://a/1")
	if want := []rdf.Term{a1, rdf.NewLiteral("http://b/1"), a1, a1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dispatched rows %v, want %v", got, want)
	}
}

// slowCoref answers every lookup after a pause, counting them: a remote
// co-reference service under load.
type slowCoref struct {
	pause   time.Duration
	lookups atomic.Int64
}

func (c *slowCoref) Equivalents(uri string) []string {
	c.lookups.Add(1)
	time.Sleep(c.pause)
	return []string{uri, strings.Replace(uri, "http://b/", "http://a/", 1)}
}

// TestSlowCorefNotChargedToEndpoint: owl:sameAs lookups that take longer
// than the attempt's deadline and the hedge delay neither fail the
// endpoint nor hedge it, and stay out of its latency; the fan-out's
// targets share the executor's representative cache, so each distinct
// IRI is looked up once, and a later fan-out looks up none.
func TestSlowCorefNotChargedToEndpoint(t *testing.T) {
	fc := newFakeClient()
	for _, url := range []string{"e1", "e2"} {
		fc.on(url, func(context.Context, int) (*eval.Result, error) {
			return answers("http://b/1", "http://b/2", "http://b/3"), nil
		})
	}
	fc.on("replica", func(context.Context, int) (*eval.Result, error) {
		t.Error("backup dispatched while the primary waited on owl:sameAs lookups")
		return answers(), nil
	})
	cs := &slowCoref{pause: 40 * time.Millisecond}
	o := hedgeOpts()
	o.EndpointTimeout = 30 * time.Millisecond
	e := NewExecutor(fc, nil, cs, o)
	res, err := selectAll(context.Background(), e, req(
		Target{Dataset: "d1", Endpoint: "e1", Replicas: []string{"replica"}},
		Target{Dataset: "d2", Endpoint: "e2", Replicas: []string{"replica"}}))
	if err != nil || res.Partial {
		t.Fatalf("err = %v, partial = %v, per dataset %+v", err, res.Partial, res.PerDataset)
	}
	if want := answers("http://a/1", "http://a/2", "http://a/3").Solutions; !reflect.DeepEqual(res.Solutions, want) {
		t.Fatalf("solutions = %v, want %v", res.Solutions, want)
	}
	if n := cs.lookups.Load(); n != 3 {
		t.Errorf("%d coref lookups, want 3: one per distinct IRI", n)
	}
	if again, err := selectAll(context.Background(), e, req(Target{Dataset: "d1", Endpoint: "e1"})); err != nil || !reflect.DeepEqual(again.Solutions, res.Solutions) {
		t.Fatalf("second fan-out = %v, %v", again.Solutions, err)
	}
	if n := cs.lookups.Load(); n != 3 {
		t.Errorf("%d coref lookups after a second fan-out, want still 3", n)
	}
	if st := e.Stats(); st.Hedges != 0 {
		t.Errorf("hedges = %d, want 0", st.Hedges)
	}
	for _, h := range e.Endpoints().Snapshot() {
		if h.Failures != 0 || h.P95MS >= 40 {
			t.Errorf("%s: %d failures, p95 %.1f ms: charged for the coref source", h.Endpoint, h.Failures, h.P95MS)
		}
	}
}

// TestMergerAllocations: per row, new or duplicate, a worker's
// canonicalisation and the fan-out's merge together allocate next to
// nothing once the executor's RepCache holds the rows' classes — a new
// row's representatives come out of the cache and its key out of the key
// arena. Filling the cache, once per IRI for the mediator's lifetime, is
// bounded separately.
func TestMergerAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const n = 1024 // AllocsPerRun rounds down, so a fraction per row is measured over many rows
	cs := coref.NewStore()
	batches := make([]eval.RowBuf, n/maxBatchRows)
	for i := range n {
		cs.Add(fmt.Sprintf("http://b/%d", i), fmt.Sprintf("http://a/%d", i))
		b := &batches[i/maxBatchRows]
		b.Width = 2
		b.Append(eval.Row{rdf.NewIRI(fmt.Sprintf("http://b/%d", i)), rdf.NewLiteral("x")})
	}
	emitted := 0
	var (
		reps *RepCache
		m    *merger
	)
	pd := newPausableDeadline(context.Background(), time.Hour)
	defer pd.Stop()
	feed := func() {
		for _, b := range batches {
			// The merge consumes its input; hand it a copy of the slab, as
			// a worker hands over a fresh one (the copy is the one
			// allocation per batch this loop itself makes).
			b.Terms = append([]rdf.Term(nil), b.Terms...)
			reps.canonicalise(b.Terms, pd) // as a worker does before its push
			emitted += m.merge(b).N
		}
	}
	perRow := func(f func()) float64 {
		return (testing.AllocsPerRun(5, f) - float64(len(batches))) / n
	}
	if got := perRow(func() {
		reps, m = NewRepCache(cs), &merger{}
		feed()
	}); got > 9 {
		t.Errorf("filling the cache: %.3f allocations per row (one two-member class each), want at most 9", got)
	}
	if got := perRow(func() {
		m = &merger{}
		feed()
	}); got > 0.1 {
		t.Errorf("canonicalising and merging new rows: %.3f allocations per row, want at most 0.1", got)
	}
	if got := perRow(feed); got != 0 {
		t.Errorf("canonicalising and merging duplicate rows: %.3f allocations per row, want 0", got)
	}
	if emitted != 12*n || m.duplicates != 6*n {
		t.Fatalf("emitted %d rows and dropped %d, want %d and %d", emitted, m.duplicates, 12*n, 6*n)
	}
}

// pairSource is a coref source that lists classes and counts its
// lookups.
type pairSource struct {
	classes map[string][]string
	lookups atomic.Int64
}

func (p *pairSource) Equivalents(uri string) []string {
	p.lookups.Add(1)
	if eq, ok := p.classes[uri]; ok {
		return eq
	}
	return []string{uri}
}

// TestRepCacheSources: a coref.Store and a source that only lists classes
// give the same representatives, and one lookup fills a whole class.
func TestRepCacheSources(t *testing.T) {
	cs := coref.NewStore()
	cs.Add("http://b/1", "http://a/1")
	cs.Add("http://b/1", "http://c/1")
	class := []string{"http://a/1", "http://b/1", "http://c/1"}
	plain := &pairSource{classes: map[string][]string{"http://a/1": class, "http://b/1": class, "http://c/1": class}}
	for name, src := range map[string]interface{ Equivalents(string) []string }{"store": cs, "equivalents": plain} {
		c := NewRepCache(src)
		if NewRepCache(c) != c {
			t.Fatalf("%s: wrapping a RepCache again built another cache", name)
		}
		for _, uri := range append(class, "http://lonely/1", "http://b/1") {
			want := rdf.NewIRI(uri)
			if uri != "http://lonely/1" {
				want = rdf.NewIRI("http://a/1")
			}
			if got := c.Term(rdf.NewIRI(uri)); got != want {
				t.Errorf("%s: Term(%s) = %v, want %v", name, uri, got, want)
			}
		}
		if lit := rdf.NewLiteral("http://b/1"); c.Term(lit) != lit {
			t.Errorf("%s: a literal was canonicalised", name)
		}
		if got := c.Triple(rdf.NewTriple(rdf.NewIRI("http://c/1"), rdf.NewIRI("http://p"), rdf.NewLiteral("o"))); got.S != rdf.NewIRI("http://a/1") {
			t.Errorf("%s: Triple subject = %v", name, got.S)
		}
		if got := c.Equivalents("http://c/1"); !reflect.DeepEqual(got, class) || rep(c, "http://c/1") != "http://a/1" {
			t.Errorf("%s: Equivalents = %v, representative %s", name, got, rep(c, "http://c/1"))
		}
	}
	if n := plain.lookups.Load(); n != 3 {
		t.Errorf("%d lookups, want 3: one per class (a/1's, lonely/1's, the predicate's)", n)
	}
	var none *RepCache
	if none.Term(rdf.NewIRI("http://b/1")) != rdf.NewIRI("http://b/1") || rep(none, "x") != "x" || len(none.Equivalents("x")) != 1 {
		t.Error("a nil RepCache is not the identity")
	}
}

// rep is the representative c gives the IRI uri, as a string.
func rep(c *RepCache, uri string) string { return c.Term(rdf.NewIRI(uri)).Value }

// addingStore is a coref.Store whose next lookup runs during adds first:
// a write landing while a fill is in flight.
type addingStore struct {
	*coref.Store
	during  func()
	lookups atomic.Int64
}

func (s *addingStore) Equivalents(uri string) []string {
	s.lookups.Add(1)
	eq := s.Store.Equivalents(uri)
	if f := s.during; f != nil {
		s.during = nil
		f()
	}
	return eq
}

// TestRepCacheFollowsStoreEpoch: an Add to the store is seen by the next
// lookup, and a class filled while an Add landed is served to its caller
// but not kept.
func TestRepCacheFollowsStoreEpoch(t *testing.T) {
	src := &addingStore{Store: coref.NewStore()}
	src.Add("http://b/1", "http://c/1")
	c := NewRepCache(src)
	if got := rep(c, "http://c/1"); got != "http://b/1" {
		t.Fatalf("representative %s", got)
	}
	src.Add("http://b/1", "http://a/1")
	if got := rep(c, "http://c/1"); got != "http://a/1" {
		t.Fatalf("after an Add, representative %s, want http://a/1", got)
	}
	src.during = func() { src.Add("http://a/1", "http://0/1") }
	rep(c, "http://c/1") // hit: no lookup, no Add
	rep(c, "http://lonely/1")
	if got := rep(c, "http://c/1"); got != "http://0/1" {
		t.Fatalf("after an Add during a fill, representative %s, want http://0/1", got)
	}
	if n := src.lookups.Load(); n != 4 {
		t.Errorf("%d lookups, want 4: fill, refill after the Add, the lonely IRI, refill after the Add during it", n)
	}
	rep(c, "http://lonely/1")
	if n := src.lookups.Load(); n != 5 {
		t.Errorf("%d lookups, want 5: the class filled across an Add was kept", n)
	}
}

// heldStore is a coref.Store whose first lookup waits for release.
type heldStore struct {
	*coref.Store
	entered, release chan struct{}
	calls            atomic.Int64
}

func (s *heldStore) Equivalents(uri string) []string {
	eq := s.Store.Equivalents(uri)
	if s.calls.Add(1) == 1 {
		close(s.entered)
		<-s.release
	}
	return eq
}

// TestRepCacheAddDetachesFlight: a lookup after an Add does not wait on a
// fill begun before it, whose class may be stale; it asks again.
func TestRepCacheAddDetachesFlight(t *testing.T) {
	src := &heldStore{Store: coref.NewStore(), entered: make(chan struct{}), release: make(chan struct{})}
	src.Add("http://b/1", "http://c/1")
	c := NewRepCache(src)
	first := make(chan string)
	go func() { first <- rep(c, "http://c/1") }()
	<-src.entered
	src.Add("http://b/1", "http://a/1")
	second := make(chan string)
	go func() { second <- rep(c, "http://c/1") }()
	select {
	case got := <-second:
		if got != "http://a/1" {
			t.Errorf("lookup after the Add = %s, want http://a/1", got)
		}
	case <-time.After(5 * time.Second):
		t.Error("the lookup after the Add waited on the fill begun before it")
	}
	close(src.release)
	<-first
	if got := rep(c, "http://c/1"); got != "http://a/1" || src.calls.Load() != 2 {
		t.Errorf("representative %s after %d lookups, want http://a/1 after 2: the stale fill was kept", got, src.calls.Load())
	}
}

// flakySource fails its lookups while down, as coref.Client.Lookup does
// when the service answers 503.
type flakySource struct {
	down    bool
	lookups int
}

func (f *flakySource) Equivalents(uri string) []string { panic("the cache must use Lookup") }

func (f *flakySource) Lookup(uri string) ([]string, error) {
	f.lookups++
	if f.down {
		return nil, errors.New("503 Service Unavailable")
	}
	return []string{"http://a/1", "http://b/1"}, nil
}

// TestRepCacheKeepsNoFailure: a failed lookup answers the singleton class
// and is asked again; a class without an epoch expires after corefTTL.
func TestRepCacheKeepsNoFailure(t *testing.T) {
	src := &flakySource{down: true}
	c := NewRepCache(src)
	for range 2 {
		if got := c.Equivalents("http://b/1"); !reflect.DeepEqual(got, []string{"http://b/1"}) {
			t.Fatalf("during the outage Equivalents = %v, want the singleton", got)
		}
	}
	src.down = false
	if got := rep(c, "http://b/1"); got != "http://a/1" || src.lookups != 3 {
		t.Fatalf("after recovery representative %s after %d lookups, want http://a/1 after 3", got, src.lookups)
	}
	rep(c, "http://a/1")
	if src.lookups != 3 {
		t.Fatalf("%d lookups: the recovered class was not kept", src.lookups)
	}
	cl, _ := c.c.lru.Get("http://a/1")
	if want := time.Now().Add(corefTTL); cl.expires.After(want) || cl.expires.Before(want.Add(-time.Minute)) {
		t.Fatalf("expires %v, want about %v", cl.expires, want)
	}
	cl.expires = time.Now().Add(-time.Second)
	rep(c, "http://b/1")
	if src.lookups != 4 {
		t.Fatalf("%d lookups: an expired class was served", src.lookups)
	}
}

// TestRepCacheFillsOnce: concurrent lookups of one IRI ask the source
// once.
func TestRepCacheFillsOnce(t *testing.T) {
	src := &slowCoref{pause: 20 * time.Millisecond}
	c := NewRepCache(src)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := rep(c, "http://b/1"); got != "http://a/1" {
				t.Errorf("representative %s", got)
			}
		}()
	}
	wg.Wait()
	if n := src.lookups.Load(); n != 1 {
		t.Errorf("%d lookups, want 1", n)
	}
}
