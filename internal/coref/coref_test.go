package coref

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"sparqlrw/internal/rdf"
)

func TestAddSameEquivalents(t *testing.T) {
	s := NewStore()
	s.Add("http://a/1", "http://b/1")
	s.Add("http://b/1", "http://c/1")
	if s.Canonical("http://c/1") != "http://a/1" {
		t.Fatal("transitivity broken")
	}
	if s.Canonical("http://d/1") != "http://d/1" {
		t.Fatal("an unrelated URI joined the class")
	}
	eq := s.Equivalents("http://a/1")
	if len(eq) != 3 {
		t.Fatalf("class = %v", eq)
	}
}

func TestUnknownURISingleton(t *testing.T) {
	s := NewStore()
	eq := s.Equivalents("http://unknown/x")
	if len(eq) != 1 || eq[0] != "http://unknown/x" {
		t.Fatalf("singleton = %v", eq)
	}
	if s.Canonical("http://unknown/x") != "http://unknown/x" {
		t.Fatal("canonical of unknown must be itself")
	}
}

func TestFirstMatching(t *testing.T) {
	s := NewStore()
	s.Add("http://southampton.rkbexplorer.com/id/person-02686", "http://kisti.rkbexplorer.com/id/PER_00000000105047")
	s.Add("http://southampton.rkbexplorer.com/id/person-02686", "http://dbpedia.org/resource/Nigel_Shadbolt")
	re := regexp.MustCompile(`http://kisti\.rkbexplorer\.com/id/\S*`)
	got, ok := s.FirstMatching("http://southampton.rkbexplorer.com/id/person-02686", re)
	if !ok || got != "http://kisti.rkbexplorer.com/id/PER_00000000105047" {
		t.Fatalf("FirstMatching = %q %v", got, ok)
	}
	re2 := regexp.MustCompile(`http://nowhere\.example/\S*`)
	if _, ok := s.FirstMatching("http://southampton.rkbexplorer.com/id/person-02686", re2); ok {
		t.Fatal("unexpected match")
	}
}

func TestCanonicalDeterministic(t *testing.T) {
	s := NewStore()
	s.Add("http://b/x", "http://a/x")
	s.Add("http://c/x", "http://b/x")
	for i := 0; i < 5; i++ {
		if got := s.Canonical("http://c/x"); got != "http://a/x" {
			t.Fatalf("canonical = %q", got)
		}
	}
}

// TestLoadGraph: only owl:sameAs triples between IRIs are ingested.
func TestLoadGraph(t *testing.T) {
	s := NewStore()
	g := rdf.Graph{
		rdf.NewTriple(rdf.NewIRI("http://a/1"), rdf.NewIRI(rdf.OWLSameAs), rdf.NewIRI("http://b/1")),
		rdf.NewTriple(rdf.NewIRI("http://a/2"), rdf.NewIRI(rdf.OWLSameAs), rdf.NewIRI("http://b/2")),
		rdf.NewTriple(rdf.NewIRI("http://a/1"), rdf.NewIRI("http://other/prop"), rdf.NewIRI("http://b/9")),
	}
	if n := s.LoadGraph(g); n != 2 {
		t.Fatalf("loaded %d", n)
	}
	if s.Canonical("http://b/1") != "http://a/1" || s.Canonical("http://b/2") != "http://a/2" {
		t.Fatal("loaded pairs not co-referenced")
	}
	if s.Canonical("http://b/9") != "http://b/9" || s.Members() != 4 {
		t.Fatalf("a non-sameAs triple was ingested: %d members", s.Members())
	}
}

// TestEpochMovesOnAdd: every Add moves the epoch, a read does not.
func TestEpochMovesOnAdd(t *testing.T) {
	s := NewStore()
	e0 := s.Epoch()
	s.Add("http://a/1", "http://b/1")
	e1 := s.Epoch()
	s.Equivalents("http://a/1")
	s.Canonical("http://b/1")
	if e1 == e0 || s.Epoch() != e1 {
		t.Fatalf("epochs %d, %d, %d: Add must move it, reads must not", e0, e1, s.Epoch())
	}
	s.Add("http://a/1", "http://b/1") // already one class: still a write
	if s.Epoch() == e1 {
		t.Fatal("a repeated Add left the epoch alone")
	}
}

func TestLoadNTriples(t *testing.T) {
	s := NewStore()
	n, err := s.LoadNTriples(`<http://a/1> <` + rdf.OWLSameAs + `> <http://b/1> .`)
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if _, err := s.LoadNTriples("garbage"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestClassesAndMembers(t *testing.T) {
	s := NewStore()
	s.Add("a", "b")
	s.Add("c", "d")
	s.Add("b", "a") // duplicate union
	if s.Classes() != 2 || s.Members() != 4 || s.Pairs() != 3 {
		t.Fatalf("classes=%d members=%d pairs=%d", s.Classes(), s.Members(), s.Pairs())
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Add(fmt.Sprintf("http://w%d/u%d", w, i), fmt.Sprintf("http://hub/u%d", i))
				s.Equivalents(fmt.Sprintf("http://hub/u%d", i))
			}
		}(w)
	}
	wg.Wait()
	// every class has 8 spokes + hub
	if got := len(s.Equivalents("http://hub/u5")); got != 9 {
		t.Fatalf("class size = %d, want 9", got)
	}
}

// Property: union-find maintains an equivalence relation (reflexive,
// symmetric, transitive) over arbitrary pair sequences.
func TestEquivalenceRelationProperty(t *testing.T) {
	f := func(pairs []uint8) bool {
		s := NewStore()
		names := func(n uint8) string { return fmt.Sprintf("http://u/%d", n%16) }
		for i := 0; i+1 < len(pairs); i += 2 {
			s.Add(names(pairs[i]), names(pairs[i+1]))
		}
		// For every pair of members, sharing a representative must agree
		// with class membership.
		for n := 0; n < 16; n++ {
			cls := s.Equivalents(names(uint8(n)))
			inClass := map[string]bool{}
			for _, x := range cls {
				inClass[x] = true
			}
			for m := 0; m < 16; m++ {
				if (s.Canonical(names(uint8(n))) == s.Canonical(names(uint8(m)))) != inClass[names(uint8(m))] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPServiceAndClient(t *testing.T) {
	s := NewStore()
	s.Add("http://a/1", "http://b/1")
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	c := NewClient(srv.URL)
	eq := c.Equivalents("http://a/1")
	if len(eq) != 2 {
		t.Fatalf("client equivalents = %v", eq)
	}
	members, classes, pairs, err := c.Stats()
	if err != nil || members != 2 || classes != 1 || pairs != 1 {
		t.Fatalf("stats = %d %d %d %v", members, classes, pairs, err)
	}
	// unknown URI -> singleton
	if eq := c.Equivalents("http://nope/x"); len(eq) != 1 {
		t.Fatalf("unknown = %v", eq)
	}
}

func TestClientDegradesGracefully(t *testing.T) {
	c := NewClient("http://127.0.0.1:1") // nothing listening
	eq := c.Equivalents("http://a/1")
	if len(eq) != 1 || eq[0] != "http://a/1" {
		t.Fatalf("degraded = %v", eq)
	}
	if eq, err := c.Lookup("http://a/1"); err == nil {
		t.Fatalf("Lookup with nothing listening = %v, no error", eq)
	}
}

// TestClientLookupReportsStatus: a service answering 503 is an error to
// Lookup and the singleton class to Equivalents.
func TestClientLookupReportsStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	if eq, err := c.Lookup("http://a/1"); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("Lookup = %v, %v; want the 503 as an error", eq, err)
	}
	if eq := c.Equivalents("http://a/1"); len(eq) != 1 || eq[0] != "http://a/1" {
		t.Fatalf("Equivalents = %v, want the singleton class", eq)
	}
}

func TestHTTPBadRequest(t *testing.T) {
	srv := httptest.NewServer(Handler(NewStore()))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/equivalents")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func BenchmarkEquivalentsLargeClass(b *testing.B) {
	s := NewStore()
	for i := 0; i < 200; i++ {
		s.Add("http://hub/x", fmt.Sprintf("http://m%d/x", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Equivalents("http://hub/x")
	}
}
