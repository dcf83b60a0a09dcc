package mediate

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"sparqlrw/internal/coref"
	"sparqlrw/internal/workload"
)

// corefService is the co-reference REST service as cmd/mediator deploys
// it — coref.Handler over a store, behind HTTP — counting the IRIs it is
// asked for, and answering 503 while down.
type corefService struct {
	*httptest.Server
	mu    sync.Mutex
	asked map[string]int
	down  bool
}

func newCorefService(t *testing.T, s *coref.Store) *corefService {
	svc := &corefService{asked: map[string]int{}}
	h := coref.Handler(s)
	svc.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		svc.mu.Lock()
		svc.asked[r.URL.Query().Get("uri")]++
		down := svc.down
		svc.mu.Unlock()
		if down {
			http.Error(w, "co-reference service down", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(svc.Close)
	return svc
}

// requests returns how many lookups the service has received, and the
// IRIs it was asked for more than once.
func (svc *corefService) requests() (n int, repeated []string) {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	for uri, k := range svc.asked {
		n += k
		if k > 1 {
			repeated = append(repeated, uri)
		}
	}
	return n, repeated
}

func (svc *corefService) setDown(down bool) {
	svc.mu.Lock()
	svc.down = down
	svc.mu.Unlock()
}

// answer runs q on m to its end, returning its sorted solutions' summary.
func answer(t *testing.T, m *Mediator, q string) *FederatedResult {
	t.Helper()
	res, err := m.Query(context.Background(), QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	fr, err := res.Bindings().Collect()
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

// TestRemoteCorefAskedOncePerIRI: with the co-reference service behind
// HTTP, as cmd/mediator runs it, the Figure-1 and cross-vocabulary
// queries ask for no IRI twice — the sameas rewrite, the owner lookup, the
// merge and the join engine share the mediator's one cache — and a repeat
// asks for none, with the result cache off.
func TestRemoteCorefAskedOncePerIRI(t *testing.T) {
	u := exampleUniverse()
	svc := newCorefService(t, u.Coref)
	m := federationWith(t, u, coref.NewClient(svc.URL), nil)
	local := exampleFederation(t, nil)
	for _, q := range []string{workload.Figure1Query(0), workload.CrossVocabularyQuery(0)} {
		before, _ := svc.requests()
		first := answer(t, m, q)
		cold, repeated := svc.requests()
		if cold == before || len(repeated) > 0 {
			t.Errorf("first run: %d lookups, these IRIs asked for more than once: %v", cold-before, repeated)
		}
		again := answer(t, m, q)
		if n, _ := svc.requests(); n != cold {
			t.Errorf("repeat: %d lookups, want 0", n-cold)
		}
		want := answer(t, local, q)
		for _, fr := range []*FederatedResult{first, again} {
			if !reflect.DeepEqual(fr.Solutions, want.Solutions) || fr.Duplicates != want.Duplicates {
				t.Fatalf("over HTTP: %d rows, %d duplicates; in process: %d rows, %d duplicates",
					len(fr.Solutions), fr.Duplicates, len(want.Solutions), want.Duplicates)
			}
		}
	}
}

// TestRemoteCorefOutageNotKept: lookups that failed during an outage are
// asked again once the service is back, and that answer merges as a
// healthy run's does.
func TestRemoteCorefOutageNotKept(t *testing.T) {
	u := exampleUniverse()
	svc := newCorefService(t, u.Coref)
	m := federationWith(t, u, coref.NewClient(svc.URL), nil)
	healthy := answer(t, exampleFederation(t, nil), workload.Figure1Query(3))
	svc.setDown(true)
	outage := answer(t, m, workload.Figure1Query(3))
	if reflect.DeepEqual(outage.Solutions, healthy.Solutions) && outage.Duplicates == healthy.Duplicates {
		t.Fatal("the outage did not change the answer: nothing here depends on the service")
	}
	during, _ := svc.requests()
	svc.setDown(false)
	after := answer(t, m, workload.Figure1Query(3))
	if n, _ := svc.requests(); n == during {
		t.Fatal("after recovery no IRI was asked for again: the outage's answers were kept")
	}
	if !reflect.DeepEqual(after.Solutions, healthy.Solutions) || after.Duplicates != healthy.Duplicates {
		t.Fatalf("after recovery: %d rows, %d duplicates; a healthy run: %d rows, %d duplicates",
			len(after.Solutions), after.Duplicates, len(healthy.Solutions), healthy.Duplicates)
	}
}

// TestCorefWriteSeenByNextQuery: an owl:sameAs link added to the store
// after a query is seen by the next one, with the result cache off: the
// merge renders the answer under its new representative.
func TestCorefWriteSeenByNextQuery(t *testing.T) {
	u := exampleUniverse()
	m := federationOver(t, u, nil)
	first := answer(t, m, workload.Figure1Query(0))
	if len(first.Solutions) == 0 {
		t.Fatal("no co-authors")
	}
	old := first.Solutions[0]["a"]
	const alias = "http://aliases.example/co-author" // sorts before every generated IRI
	u.Coref.Add(old.Value, alias)
	next := answer(t, m, workload.Figure1Query(0))
	if len(next.Solutions) != len(first.Solutions) {
		t.Fatalf("%d rows after the write, %d before", len(next.Solutions), len(first.Solutions))
	}
	found := false
	for _, sol := range next.Solutions {
		found = found || sol["a"].Value == alias
		if sol["a"] == old {
			t.Fatalf("%s still rendered under its old representative", old)
		}
	}
	if !found {
		t.Fatalf("no row renders the new representative %s: %v", alias, next.Solutions)
	}
}
