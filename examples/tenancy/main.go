// Tenancy: the production serving tier in front of the mediator.
// Starts the three demo repositories (Southampton, KISTI, citation
// metrics) and a mediator configured with two named tenants that carry
// different graph restrictions and different quotas:
//
//   - soton-research may only read subjects inside the Southampton URI
//     space and only query the Southampton/metrics data sets, with a
//     generous quota;
//   - kisti-mirror may only read subjects inside the KISTI URI space,
//     on a four-request budget.
//
// Access control is policy-by-rewriting: each tenant's restriction is
// injected into the query algebra before planning, riding the same
// rewriting pipeline the paper uses for ontology integration. The demo
// prints the same query as each tenant sees it after restriction, runs
// it over the W3C protocol endpoint under each identity (per-dataset
// answer counts prove the restriction held end to end), joins the
// citation metrics to Southampton's authorship as soton-research over just
// the two repositories on its list, shows the 403
// for a ground out-of-space subject, exhausts kisti-mirror's quota to a
// deterministic 429 with Retry-After, and finishes with the serving
// tier's own stats: the federated result cache and the admission table.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"

	"sparqlrw"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/workload"
)

// tenantsJSON is the exact document the mediator binary accepts via its
// -tenants flag.
const tenantsJSON = `{
  "tenants": [
    {
      "id": "soton-research",
      "keys": ["soton-key"],
      "ratePerSec": 100,
      "policy": {
        "datasets": [
          "http://southampton.rkbexplorer.com/id/void",
          "http://metrics.example/void"
        ],
        "uriSpaces": ["http://southampton.rkbexplorer.com/id/"]
      }
    },
    {
      "id": "kisti-mirror",
      "keys": ["kisti-key"],
      "ratePerSec": 0.001,
      "burst": 4,
      "policy": {
        "uriSpaces": ["http://kisti.rkbexplorer.com/id/"]
      }
    }
  ]
}`

func main() {
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 50, 150
	u := workload.Generate(cfg)

	// The three demo repositories, served over the SPARQL protocol.
	soton := httptest.NewServer(sparqlrw.NewEndpointServer("southampton", u.Southampton))
	defer soton.Close()
	kisti := httptest.NewServer(sparqlrw.NewEndpointServer("kisti", u.KISTI))
	defer kisti.Close()
	metrics := httptest.NewServer(sparqlrw.NewEndpointServer("metrics", workload.MetricsStore(u)))
	defer metrics.Close()

	dsKB := sparqlrw.NewDatasetKB()
	must(dsKB.Add(&sparqlrw.Dataset{
		URI: workload.SotonVoidURI, Title: "Southampton RKB",
		SPARQLEndpoint: soton.URL, URISpace: workload.SotonURIPattern,
		Vocabularies: []string{rdf.AKTNS},
	}))
	must(dsKB.Add(&sparqlrw.Dataset{
		URI: workload.KistiVoidURI, Title: "KISTI",
		SPARQLEndpoint: kisti.URL, URISpace: workload.KistiURIPattern,
		Vocabularies: []string{rdf.KISTINS},
	}))
	must(dsKB.Add(&sparqlrw.Dataset{
		URI: workload.MetricsVoidURI, Title: "Citation metrics",
		SPARQLEndpoint: metrics.URL, URISpace: workload.SotonURIPattern,
		Vocabularies: []string{workload.MetricsNS},
	}))
	alignKB := sparqlrw.NewAlignmentKB()
	must(alignKB.Add(workload.AKT2KISTI()))

	tenants, err := sparqlrw.ParseTenants([]byte(tenantsJSON))
	must(err)
	mediator := sparqlrw.NewMediator(dsKB, alignKB, u.Coref,
		sparqlrw.WithMediatorRewriteFilters(true),
		sparqlrw.WithMediatorServing(sparqlrw.ServingOptions{Tenants: tenants}))
	api := httptest.NewServer(sparqlrw.MediatorHandler(mediator))
	defer api.Close()
	fmt.Printf("mediator: %s  (tenants: soton-research, kisti-mirror + anonymous)\n\n", api.URL)

	// One query text, three views of it. The restriction is not a
	// post-filter: it is rewritten into the algebra, so the query a
	// restricted tenant executes cannot match out-of-grant triples on
	// any endpoint it reaches.
	queryText := fmt.Sprintf(
		"PREFIX akt:<%s>\nSELECT ?paper ?a WHERE {\n  ?paper akt:has-author ?a .\n}", rdf.AKTNS)
	parsed, err := sparqlrw.ParseQuery(queryText)
	must(err)
	fmt.Println("=== policy-by-rewriting: one query, per-tenant algebra ===")
	fmt.Printf("--- as written (anonymous runs it verbatim) ---\n%s\n", queryText)
	for _, t := range tenants.Tenants {
		restricted, changed, err := sparqlrw.RestrictQuery(parsed, t.Policy)
		must(err)
		fmt.Printf("--- as %s executes it (rewritten=%v) ---\n%s\n",
			t.ID, changed, sparqlrw.FormatQuery(restricted))
	}

	// Run it under each identity. Per-dataset raw answer counts show the
	// restriction holding end to end: the out-of-space repository
	// contributes exactly zero rows to a restricted tenant.
	fmt.Println("=== POST /sparql, per identity ===")
	allTargets := []string{workload.SotonVoidURI, workload.KistiVoidURI}
	for _, id := range []struct{ label, key string }{
		{"anonymous (no credential)", ""},
		{"kisti-mirror (X-API-Key: kisti-key)", "kisti-key"},
	} {
		sum := sparqlSSE(api.URL, id.key, queryText, allTargets...)
		fmt.Printf("--- %s, explicit targets: both repositories ---\n", id.label)
		for _, pd := range sum.PerDataset {
			fmt.Printf("  %-45s %d raw answers\n", pd.Dataset, pd.Solutions)
		}
		fmt.Printf("  merged: %d bindings\n", sum.Bindings)
	}
	// soton-research's dataset allowlist is its request's source set: with
	// no explicit targets the planner considers only the allowlisted
	// repositories, so KISTI is not consulted at all.
	sum := sparqlSSE(api.URL, "soton-key", queryText)
	fmt.Println("--- soton-research, planner-selected targets (its allowlist only) ---")
	for _, pd := range sum.PerDataset {
		fmt.Printf("  %-45s %d raw answers\n", pd.Dataset, pd.Solutions)
	}
	fmt.Printf("  merged: %d bindings\n", sum.Bindings)
	// The same source set restricts the decomposer: the citation-metrics
	// query, which no single repository answers, joins Southampton's
	// authorship with the metrics repository's counts — both on the list.
	sum = sparqlSSE(api.URL, "soton-key", workload.CrossVocabularyQuery(2))
	fmt.Println("--- soton-research, cross-vocabulary citation-metrics join (decomposed within its allowlist) ---")
	for _, pd := range sum.PerDataset {
		fmt.Printf("  %-45s %d raw answers\n", pd.Dataset, pd.Solutions)
	}
	fmt.Printf("  merged: %d bindings\n\n", sum.Bindings)

	// A ground subject outside the tenant's URI space is refused before
	// any endpoint is contacted: 403 with the JSON error document. An
	// explicit target outside the dataset allowlist is refused the same
	// way.
	fmt.Println("=== static denials (no endpoint round trips) ===")
	groundQuery := fmt.Sprintf("PREFIX akt:<%s>\nSELECT ?name WHERE { <%s> akt:full-name ?name . }",
		rdf.AKTNS, workload.SotonPerson(2).Value)
	status, _, body := sparqlRaw(api.URL, "kisti-key", groundQuery)
	fmt.Printf("kisti-mirror, ground Southampton subject: HTTP %d %s\n", status, strings.TrimSpace(body))
	status, _, body = sparqlRaw(api.URL, "soton-key", queryText, workload.KistiVoidURI)
	fmt.Printf("soton-research, explicit KISTI target:    HTTP %d %s\n\n", status, strings.TrimSpace(body))

	// kisti-mirror's bucket holds four tokens and effectively never
	// refills — and the sections above already spent two (admission runs
	// before policy, so even the denied query cost a token). The tier
	// sheds the first request past the budget with a deterministic 429
	// carrying Retry-After.
	fmt.Println("=== quota: kisti-mirror's four-request budget (two spent above) ===")
	for i := 1; i <= 5; i++ {
		status, hdr, _ := sparqlRaw(api.URL, "kisti-key", queryText, workload.KistiVoidURI)
		if status == http.StatusTooManyRequests {
			fmt.Printf("request %d: HTTP 429, Retry-After: %ss\n\n", i, hdr.Get("Retry-After"))
			break
		}
		fmt.Printf("request %d: HTTP %d\n", i, status)
	}

	// The anonymous query from above, repeated verbatim: served from the
	// federated result cache without touching an endpoint.
	_ = sparqlSSE(api.URL, "", queryText, allTargets...)
	st := mediator.Serve.Stats()
	fmt.Println("=== serving-tier stats ===")
	if c := st.Cache; c != nil {
		fmt.Printf("result cache: %d hits, %d misses, %d entries (hit rate %.0f%%)\n",
			c.Hits, c.Misses, c.Entries, 100*c.HitRate)
	}
	for _, ts := range st.Tenants {
		fmt.Printf("  %-15s admitted=%-3d rejected=%-2d restricted=%v\n",
			ts.Tenant, ts.Admitted, ts.Rejected, ts.Restricted)
	}
}

// sseSummary is the /sparql SSE serialisation's terminal summary event
// plus the binding count.
type sseSummary struct {
	Bindings   int
	PerDataset []struct {
		Dataset   string `json:"dataset"`
		Solutions int    `json:"solutions"`
	} `json:"perDataset"`
}

// sparqlSSE runs one protocol query as the tenant identified by key
// (empty = anonymous) with Accept: text/event-stream, returning the
// parsed terminal summary.
func sparqlSSE(base, key, query string, targets ...string) sseSummary {
	resp := post(base, key, query, "text/event-stream", targets)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		log.Fatalf("/sparql: HTTP %d: %s", resp.StatusCode, body)
	}
	var sum sseSummary
	var event string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "binding":
				sum.Bindings++
			case "summary":
				if err := json.Unmarshal([]byte(data), &sum); err != nil {
					log.Fatal(err)
				}
			case "error":
				log.Fatalf("stream error: %s", data)
			}
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	return sum
}

// sparqlRaw runs one protocol query and returns the status, headers and
// body — for the denial and load-shed responses.
func sparqlRaw(base, key, query string, targets ...string) (int, http.Header, string) {
	resp := post(base, key, query, "", targets)
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, string(body)
}

func post(base, key, query, accept string, targets []string) *http.Response {
	form := url.Values{"query": {query}, "target": targets}
	req, err := http.NewRequest(http.MethodPost, base+"/sparql", strings.NewReader(form.Encode()))
	must(err)
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	must(err)
	return resp
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
