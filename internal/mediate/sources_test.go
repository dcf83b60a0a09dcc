package mediate

// Tests of the request's source set: the tenant's dataset allowlist
// restricts every path — planner, decomposer, view tier, result cache,
// explicit targets and DESCRIBE — instead of switching features off, and
// a voiD change reaches every answer a new data set could add to.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"sparqlrw/internal/decompose"
	"sparqlrw/internal/endpoint"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/store"
	"sparqlrw/internal/view"
	"sparqlrw/internal/voidkb"
	"sparqlrw/internal/workload"
)

// TestVoidChangeDropsCachedAnswersAndViews: registering a data set can add
// to any answer, not only to those that touched a data set already
// registered. A fourth AKT repository in Southampton's URI space holding
// one more co-author of person 0 must show in the next answer, whether
// the last one was cached or came from a view.
func TestVoidChangeDropsCachedAnswersAndViews(t *testing.T) {
	person := workload.SotonPerson(0)
	papers := exampleUniverse().Southampton.Subjects(rdf.NewIRI(rdf.AKTHasAuthor), person)
	if len(papers) == 0 {
		t.Fatal("person 0 wrote nothing")
	}
	newcomer := rdf.NewIRI(workload.SotonIDSpace + "person-newcomer")
	extra := store.New()
	extra.Add(rdf.NewTriple(papers[0], rdf.NewIRI(rdf.AKTHasAuthor), person))
	extra.Add(rdf.NewTriple(papers[0], rdf.NewIRI(rdf.AKTHasAuthor), newcomer))
	register := func(t *testing.T, m *Mediator) {
		local := "extra-" + strings.ReplaceAll(t.Name(), "/", "-")
		endpoint.RegisterLocal(local, endpoint.NewServer(local, extra))
		t.Cleanup(func() { endpoint.UnregisterLocal(local) })
		if err := m.Datasets.Add(&voidkb.Dataset{URI: "http://extra.example/void",
			SPARQLEndpoint: endpoint.LocalURL(local), URISpace: workload.SotonURIPattern,
			Vocabularies: []string{rdf.AKTNS}}); err != nil {
			t.Fatal(err)
		}
	}
	newcomers := func(rows [][]rdf.Term) int {
		n := 0
		for _, row := range rows {
			if slices.Contains(row, newcomer) {
				n++
			}
		}
		return n
	}
	for _, c := range []struct {
		name  string
		query string
		start func(t *testing.T) *Mediator
	}{
		{"result cache", workload.Figure1Query(0), func(t *testing.T) *Mediator {
			return exampleFederation(t, nil, WithServing(serve.Options{}))
		}},
		{"view", workload.CrossVocabularyQuery(0), func(t *testing.T) *Mediator {
			m, _ := viewFederation(t, 0)
			return m
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := c.start(t)
			before := selectRows(t, m, c.query)
			if len(before) == 0 || newcomers(before) != 0 {
				t.Fatalf("before the voiD change: %d rows, %d with the newcomer", len(before), newcomers(before))
			}
			register(t, m)
			after := selectRows(t, m, c.query)
			if newcomers(after) != 1 || len(after) != len(before)+1 {
				t.Errorf("after registering a data set: %d rows, %d with the newcomer; want %d, 1 — an answer from before the change",
					len(after), newcomers(after), len(before)+1)
			}
		})
	}
}

// TestTenantAllRepositoriesJoinAndViewHit: a tenant whose allowlist holds
// every repository the cross-vocabulary query needs gets the decomposed
// join, with the anonymous tenant's answer, and once its fragments are
// materialized a view hit for each that no endpoint hears of.
func TestTenantAllRepositoriesJoinAndViewHit(t *testing.T) {
	var requests atomic.Int64
	m := exampleFederation(t, func(_ string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			requests.Add(1)
			h.ServeHTTP(w, r)
		})
	}, WithViews(view.Options{MinFrequency: 1}))
	tenant := &serve.Tenant{ID: "all-three", Policy: &serve.Policy{
		Datasets: []string{workload.SotonVoidURI, workload.KistiVoidURI, workload.MetricsVoidURI},
	}}
	req := QueryRequest{Query: workload.CrossVocabularyQuery(2), Tenant: tenant}
	want := sortedRows(newOracle(t, exampleUniverse(), nil).answer(t, req.Query))

	res, err := m.Query(context.Background(), req)
	if err != nil {
		t.Fatalf("allowlisted tenant: %v", err)
	}
	if res.Decomposition() == nil {
		t.Error("the cross-vocabulary query did not decompose")
	}
	res.Close()
	got, err := mediatorRows(m, req)
	if err != nil || !slices.EqualFunc(sortedRows(got), want, slices.Equal) {
		t.Fatalf("decomposed join: %v\n got %v\nwant %v", err, got, want)
	}

	waitViewsReady(t, m, 3)
	r0, h0 := requests.Load(), m.Views.Stats().Hits
	got, err = mediatorRows(m, req)
	if err != nil || !slices.EqualFunc(sortedRows(got), want, slices.Equal) {
		t.Fatalf("view answer: %v\n got %v\nwant %v", err, got, want)
	}
	if hits, trips := m.Views.Stats().Hits-h0, requests.Load()-r0; hits != 3 || trips != 0 {
		t.Errorf("%d view hits, %d endpoint requests; want 3, 0", hits, trips)
	}
}

// TestDescribeKeepsToItsTargets: QueryRequest.Targets names the data sets
// to query, so a DESCRIBE naming its targets asks only them for the
// description and answers only their triples.
func TestDescribeKeepsToItsTargets(t *testing.T) {
	repos := []string{workload.SotonVoidURI, workload.KistiVoidURI, workload.MetricsVoidURI}
	var taps [3]atomic.Int64
	m := exampleFederation(t, func(dataset string, h http.Handler) http.Handler {
		tap := &taps[slices.Index(repos, dataset)]
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			tap.Add(1)
			h.ServeHTTP(w, r)
		})
	})
	req := QueryRequest{Query: "DESCRIBE <" + workload.SotonPerson(2).Value + ">", Targets: []string{workload.KistiVoidURI}}
	got, err := mediatorGraph(m, req)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range repos {
		if n := taps[i].Load(); (n > 0) != (r == workload.KistiVoidURI) {
			t.Errorf("%d requests to %s; want requests to the target alone", n, r)
		}
	}
	want := newOracle(t, exampleUniverse(), nil).graph(t, req.Query, voidkb.Sources{workload.KistiVoidURI: true})
	checkGraph(t, "DESCRIBE at KISTI", got, want)

	// A target outside the tenant's allowlist is refused, as for SELECT.
	req.Tenant = &serve.Tenant{ID: "soton", Policy: &serve.Policy{Datasets: []string{workload.SotonVoidURI}}}
	if _, err := m.Query(context.Background(), req); !errors.Is(err, serve.ErrDenied) {
		t.Errorf("DESCRIBE at KISTI as a Southampton-only tenant: %v, want ErrDenied", err)
	}
}

// TestPolicySoundness holds every path to the request's source set, for
// every non-empty subset of the three repositories, once as a tenant's
// dataset allowlist and once as the anonymous tenant's named targets: no
// endpoint outside the set receives a request, and every SELECT answer is
// a subset of the oracle integrating just the set's repositories — equal
// to it when the set holds every repository the query needs. A refusal is
// allowed only when some needed repository is missing, and must be
// ErrDenied for an allowlist and a plain error (400) for named targets.
func TestPolicySoundness(t *testing.T) {
	u := exampleUniverse()
	repos := []string{workload.SotonVoidURI, workload.KistiVoidURI, workload.MetricsVoidURI}
	var allowlists [][]string
	for mask := 1; mask < 1<<len(repos); mask++ {
		var list []string
		for i, r := range repos {
			if mask&(1<<i) != 0 {
				list = append(list, r)
			}
		}
		allowlists = append(allowlists, list)
	}
	oracles := map[string]*oracle{}
	oracleOf := func(src voidkb.Sources) *oracle {
		key := strings.Join(slices.Sorted(maps.Keys(src)), " ")
		if oracles[key] == nil {
			oracles[key] = newOracle(t, u, src)
		}
		return oracles[key]
	}

	metrics := "PREFIX m:<" + workload.MetricsNS + ">\nSELECT ?paper ?c WHERE { ?paper m:citationCount ?c }"
	templates := []struct {
		name, text string
		needs      []string
	}{
		{"figure 1", workload.Figure1Query(2), repos[:2]},
		{"cross-vocabulary", workload.CrossVocabularyQuery(2), repos},
		{"cross-vocabulary, filtered", strings.TrimSuffix(workload.CrossVocabularyQuery(2), "}") + "FILTER(?c > 20) }", repos},
		{"metrics", metrics, repos[2:]},
	}
	describe := fmt.Sprintf("PREFIX akt:<%s>\nDESCRIBE ?paper WHERE { ?paper akt:has-author <%s> }",
		rdf.AKTNS, workload.SotonPerson(2).Value)

	paths := []struct {
		name string
		opts []Option
		// cached repeats every query, to be answered from the result
		// cache; viewed materializes the cross-vocabulary query's three
		// fragments first, and no view after them.
		cached, viewed bool
	}{
		{name: "planned"},
		{name: "bound join", opts: []Option{WithDecomposer(decompose.Options{BindBatch: 2})}},
		{name: "hash join", opts: []Option{WithDecomposer(decompose.Options{MaxBindRows: -1})}},
		{name: "result cache", opts: []Option{WithServing(serve.Options{})}, cached: true},
		{name: "view hit", opts: []Option{WithViews(view.Options{MinFrequency: 1, MaxViews: 3})}, viewed: true},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			var taps [3]atomic.Int64
			m := exampleFederation(t, func(dataset string, h http.Handler) http.Handler {
				tap := &taps[slices.Index(repos, dataset)]
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					tap.Add(1)
					h.ServeHTTP(w, r)
				})
			}, path.opts...)
			if path.viewed {
				selectRows(t, m, workload.CrossVocabularyQuery(2))
				waitViewsReady(t, m, 3)
			}
			// run sends one request, fails the test when an endpoint outside
			// the source set heard of it or it was refused the wrong way, and
			// returns the request's endpoint round trips.
			run := func(name string, src voidkb.Sources, refusal func(error) bool, do func() error) (trips int64, err error) {
				var before [3]int64
				for i := range taps {
					before[i] = taps[i].Load()
				}
				err = do()
				for i, r := range repos {
					n := taps[i].Load() - before[i]
					if n != 0 && !src.Has(r) {
						t.Errorf("%s: %d requests to %s, outside the source set", name, n, r)
					}
					trips += n
				}
				if err != nil && !refusal(err) {
					t.Errorf("%s: refused the wrong way: %v", name, err)
				}
				return trips, err
			}
			for _, list := range allowlists {
				src := voidkb.Sources{}
				for _, r := range list {
					src[r] = true
				}
				policy := &serve.Policy{Datasets: list}
				scopes := []struct {
					name    string
					base    QueryRequest
					refusal func(error) bool
				}{
					{"as " + fmt.Sprint(list), QueryRequest{Tenant: &serve.Tenant{ID: "t", Policy: policy}},
						func(err error) bool { return errors.Is(err, serve.ErrDenied) }},
					{"naming " + fmt.Sprint(list), QueryRequest{Targets: list},
						func(err error) bool { return !errors.Is(err, serve.ErrDenied) }},
				}
				for _, scope := range scopes {
					for _, tmpl := range templates {
						name := tmpl.name + " " + scope.name
						complete := !slices.ContainsFunc(tmpl.needs, func(r string) bool { return !src.Has(r) })
						req := scope.base
						req.Query = tmpl.text
						want := rowSet(oracleOf(src).answer(t, tmpl.text))
						repeats := 1
						if path.cached {
							repeats = 2
						}
						for i := range repeats {
							var got [][]rdf.Term
							v0 := m.Views.Stats()
							trips, err := run(name, src, scope.refusal, func() (err error) {
								got, err = mediatorRows(m, req)
								return err
							})
							switch {
							case err != nil && complete:
								t.Errorf("%s: refused although every needed repository is allowed: %v", name, err)
							case complete && !maps.Equal(rowSet(got), want):
								t.Errorf("%s: %d rows, want the permitted oracle's %d", name, len(rowSet(got)), len(want))
							}
							for key := range rowSet(got) {
								if !want[key] {
									t.Errorf("%s: row %s is not in the permitted oracle's answer", name, key)
									break
								}
							}
							if i == 1 && trips != 0 {
								t.Errorf("%s, repeated: %d round trips, want a cache hit", name, trips)
							}
							if !path.viewed {
								continue
							}
							// A view answers only inside the source set, and
							// answers every fragment when the set holds them all
							// — but the citation counts' when the FILTER on
							// them makes theirs a filtered fragment.
							v1 := m.Views.Stats()
							for k, v := range v1.Views {
								if v.Hits > v0.Views[k].Hits && slices.ContainsFunc(v.Datasets, func(ds string) bool { return !src.Has(ds) }) {
									t.Errorf("%s: view %s over %v answered", name, v.ID, v.Datasets)
								}
							}
							want := uint64(3)
							if strings.HasSuffix(tmpl.name, "filtered") {
								want = 2
							}
							if hit := v1.Hits - v0.Hits; strings.HasPrefix(tmpl.name, "cross-vocabulary") && complete && hit != want {
								t.Errorf("%s: %d view hits, want %d", name, hit, want)
							}
						}
					}

					// DESCRIBE: phase one resolves the papers, phase two fetches
					// their triples; neither may leave the source set.
					var graph rdf.Graph
					req := scope.base
					req.Query = describe
					_, err := run("DESCRIBE "+scope.name, src, scope.refusal, func() error {
						res, err := m.Query(context.Background(), req)
						if err != nil {
							return err
						}
						defer res.Close()
						graph, err = res.Graph().Collect()
						return err
					})
					if src.Has(workload.SotonVoidURI) && (err != nil || len(graph) == 0) {
						t.Errorf("DESCRIBE %s: %d triples, %v; want Southampton's description", scope.name, len(graph), err)
					}
				}
			}
		})
	}
}
