package mediate

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"sparqlrw/internal/federate"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/workload"
)

// requestTap records, per data set, the sub-query text of every request
// its primary endpoint receives.
type requestTap struct {
	mu   sync.Mutex
	sent map[string][]string
	// cut, when set, sends only the first half of the endpoint's answer to
	// a request it returns true for, given the data set and text: the
	// rows before the cut, then a document that breaks off.
	cut func(dataset, query string) bool
}

func (tp *requestTap) wrap(dataset string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		text := tappedQuery(r)
		tp.mu.Lock()
		if tp.sent == nil {
			tp.sent = map[string][]string{}
		}
		tp.sent[dataset] = append(tp.sent[dataset], text)
		cut := tp.cut != nil && tp.cut(dataset, text)
		tp.mu.Unlock()
		if !cut {
			h.ServeHTTP(w, r)
			return
		}
		answer := httptest.NewRecorder()
		h.ServeHTTP(answer, r)
		w.Header().Set("Content-Type", answer.Header().Get("Content-Type"))
		w.Write(answer.Body.Bytes()[:answer.Body.Len()/2])
	})
}

// take returns the texts recorded since the last take, per data set, and
// how many there were.
func (tp *requestTap) take() (map[string][]string, int) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	sent, n := tp.sent, 0
	for _, texts := range sent {
		n += len(texts)
	}
	tp.sent = nil
	return sent, n
}

// paperName matches the local name of a paper's IRI in Southampton's or
// KISTI's spelling, written whole or as a prefixed name.
var paperName = regexp.MustCompile(`\b(paper-\d+|ART_\w+)\b`)

// boundPapers returns the paper IRIs of the texts that carry a VALUES
// block: the keys a bound join sent.
func boundPapers(texts []string) []string {
	var out []string
	for _, text := range texts {
		if strings.Contains(text, "VALUES") {
			for _, name := range paperName.FindAllString(text, -1) {
				space := workload.SotonIDSpace
				if strings.HasPrefix(name, "ART_") {
					space = workload.KistiIDSpace
				}
				out = append(out, space+name)
			}
		}
	}
	slices.Sort(out)
	return out
}

// TestCarriedFragmentRoundTrips: the cross-vocabulary query's authorship
// stage travels inside the sub-query of the person's papers, to
// Southampton and KISTI, so a query costs three endpoint requests — the
// papers (with their authors) at both, then the citation counts — where
// it cost five: the authorship stage asks neither repository again when
// both returned every paper they hold. Over divergentUniverse it asks each
// for exactly the paper that repository did not return in the first
// sub-query; every answer is the oracle's.
func TestCarriedFragmentRoundTrips(t *testing.T) {
	divergent, changed := divergentUniverse()
	for _, c := range []struct {
		name    string
		u       *workload.Universe
		persons []int
		// soton and kisti are the papers the authorship stage sends each.
		soton, kisti []string
	}{
		{name: "example", u: exampleUniverse(), persons: []int{2, 5, 7}},
		{name: "divergent mirrors", u: divergent, persons: []int{2},
			soton: []string{workload.SotonPaper(changed[1]).Value},
			kisti: []string{workload.KistiPaper(changed[0]).Value}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var tp requestTap
			m := federationOver(t, c.u, tp.wrap)
			o := newOracle(t, c.u, nil)
			for _, person := range c.persons {
				text := workload.CrossVocabularyQuery(person)
				got, err := mediatorRows(m, QueryRequest{Query: text})
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, fmt.Sprintf("person %d", person), text, got, o.answer(t, text))
				sent, n := tp.take()
				soton, kisti := boundPapers(sent[workload.SotonVoidURI]), boundPapers(sent[workload.KistiVoidURI])
				if want := 3 + len(c.soton) + len(c.kisti); n != want {
					t.Errorf("person %d: %d endpoint requests, want %d: %v", person, n, want, sent)
				}
				if !slices.Equal(soton, c.soton) || !slices.Equal(kisti, c.kisti) {
					t.Errorf("person %d: the authorship stage sent Southampton %v and KISTI %v, want %v and %v",
						person, soton, kisti, c.soton, c.kisti)
				}
				for _, texts := range [][]string{sent[workload.SotonVoidURI], sent[workload.KistiVoidURI]} {
					if len(texts) == 0 || !strings.Contains(texts[0], "OPTIONAL") {
						t.Errorf("person %d: the first sub-query carries no OPTIONAL group: %q", person, texts)
					}
				}
			}
		})
	}
}

// TestCarrierTargetFailure: KISTI's answer to the sub-query the
// authorship stage travels in breaks off half-way. The papers it returned
// before the break count as answered there no more than the rest: the
// stage sends KISTI every paper of the join it holds a spelling of, so the
// rows equal the oracle's; but the answer is partial, and the result
// cache does not keep it. The next request, with KISTI answering whole,
// is whole and cached.
func TestCarrierTargetFailure(t *testing.T) {
	const person = 2
	u := exampleUniverse()
	cut := false
	tp := requestTap{cut: func(dataset, query string) bool {
		if dataset != workload.KistiVoidURI || cut || !strings.Contains(query, "OPTIONAL") {
			return false
		}
		cut = true
		return true
	}}
	m := federationOver(t, u, tp.wrap,
		WithFederation(federate.Options{MaxRetries: -1}), WithServing(serve.Options{}))
	text := workload.CrossVocabularyQuery(person)
	want := newOracle(t, u, nil).answer(t, text)
	var held []string // the KISTI papers of the join: person 2's mirrored ones
	for _, j := range u.MirroredPapers {
		if slices.Contains(u.Authors[fmt.Sprint("s", j)], person) {
			held = append(held, workload.KistiPaper(j).Value)
		}
	}
	slices.Sort(held)

	for run, partial := range []bool{true, false} {
		res, err := m.Query(context.Background(), QueryRequest{Query: text})
		if err != nil {
			t.Fatal(err)
		}
		fr, err := res.Bindings().Collect()
		res.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]rdf.Term, 0, len(fr.Solutions))
		for _, sol := range fr.Solutions {
			got = append(got, []rdf.Term{sol["paper"], sol["a"], sol["c"]})
		}
		checkAgainstOracle(t, fmt.Sprintf("run %d", run), text, got, want)
		if fr.Partial != partial {
			t.Fatalf("run %d: partial %v, want %v: %+v", run, fr.Partial, partial, fr.PerDataset)
		}
		sent, n := tp.take()
		if kisti := boundPapers(sent[workload.KistiVoidURI]); partial && !slices.Equal(kisti, held) {
			t.Errorf("the authorship stage sent KISTI %v after its failure, want every paper it holds: %v", kisti, held)
		}
		if n == 0 {
			t.Fatalf("run %d was answered from the result cache", run)
		}
	}
	if _, err := mediatorRows(m, QueryRequest{Query: text}); err != nil {
		t.Fatal(err)
	}
	if _, n := tp.take(); n != 0 {
		t.Errorf("the whole answer was not cached: %d round trips", n)
	}
}
