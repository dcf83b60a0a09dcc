// Federation: the paper's deployed architecture (Figure 5) over HTTP.
// Starts two SPARQL protocol endpoints (Southampton, KISTI), a
// sameas.org-style co-reference REST service, and the mediator; then
// drives the mediator's REST API exactly as the paper's GWT UI does:
// translate a query for a chosen data set, run it everywhere, merge.
//
// It then registers a third, broken repository and queries again: the
// executor's retries fail, its circuit breaker opens, and subsequent
// federated queries skip the dead endpoint without dispatching to it —
// while the healthy repositories keep answering (best-effort partial
// results). /api/stats shows the breaker state and the rewrite-plan
// cache hits accumulated along the way. Query execution over HTTP goes
// through the W3C SPARQL-Protocol endpoint (POST /sparql, with the
// repeatable `target` extension parameter narrowing the data sets the
// planner selects from).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"time"

	"sparqlrw"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/workload"
)

func main() {
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 50, 150
	u := workload.Generate(cfg)

	// Tier 3: remote services.
	soton := httptest.NewServer(sparqlrw.NewEndpointServer("southampton", u.Southampton))
	defer soton.Close()
	kisti := httptest.NewServer(sparqlrw.NewEndpointServer("kisti", u.KISTI))
	defer kisti.Close()
	sameas := httptest.NewServer(sparqlrw.CorefHandler(u.Coref))
	defer sameas.Close()
	fmt.Printf("endpoints: southampton=%s kisti=%s sameas=%s\n\n", soton.URL, kisti.URL, sameas.URL)

	// Tier 2: knowledge bases.
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
	alignKB := sparqlrw.NewAlignmentKB()
	must(alignKB.Add(workload.AKT2KISTI()))

	// Tier 1: the mediator, using the co-reference service over HTTP like
	// the paper wraps sameas.org.
	mediator := sparqlrw.NewMediator(dsKB, alignKB, sparqlrw.NewCorefClient(sameas.URL),
		sparqlrw.WithMediatorRewriteFilters(true),
		sparqlrw.WithMediatorFederation(sparqlrw.FederationOptions{
			EndpointTimeout: 2 * time.Second,
			RetryBackoff:    5 * time.Millisecond,
			BreakerFailures: 3,
			BreakerCooldown: time.Minute,
		}))
	api := httptest.NewServer(sparqlrw.MediatorHandler(mediator))
	defer api.Close()
	fmt.Printf("mediator UI/API: %s\n\n", api.URL)

	// Drive the REST API: translate Figure 1 for KISTI.
	queryText := workload.Figure1Query(1)
	rewriteReq, _ := json.Marshal(map[string]any{
		"query":  queryText,
		"target": workload.KistiVoidURI,
	})
	var rewriteResp struct {
		Query          string   `json:"query"`
		AlignmentsUsed int      `json:"alignmentsUsed"`
		Warnings       []string `json:"warnings"`
	}
	postJSON(api.URL+"/api/rewrite", rewriteReq, &rewriteResp)
	fmt.Printf("=== /api/rewrite (%d alignments) ===\n%s\n", rewriteResp.AlignmentsUsed, rewriteResp.Query)

	// Run federated over the protocol endpoint: both repositories, merged
	// by owl:sameAs; the SSE serialisation carries the per-dataset summary
	// as its terminal event.
	sum := postSparqlSSE(api.URL, queryText,
		workload.SotonVoidURI, workload.KistiVoidURI)
	fmt.Println("=== POST /sparql (federated, SSE) ===")
	for _, pd := range sum.PerDataset {
		fmt.Printf("  %-45s %d raw answers\n", pd.Dataset, pd.Solutions)
	}
	fmt.Printf("  merged: %d distinct co-authors (%d duplicates collapsed by owl:sameAs)\n\n",
		sum.Bindings, sum.Duplicates)

	// Register a broken repository and watch the circuit breaker shield
	// the fan-out: after three consecutive failures (each retried once)
	// the breaker opens and later queries skip the endpoint entirely.
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "simulated outage", http.StatusInternalServerError)
	}))
	defer broken.Close()
	must(dsKB.Add(&sparqlrw.Dataset{
		URI: "http://broken.example/void", Title: "Broken mirror",
		SPARQLEndpoint: broken.URL, URISpace: `http://broken\.example/\S*`,
		Vocabularies: []string{rdf.AKTNS},
	}))
	// The planner sends a query about one Southampton person to no other
	// URI space, so these rounds ask about every authorship instead.
	allTargets := []string{workload.SotonVoidURI, workload.KistiVoidURI, "http://broken.example/void"}
	authorships := fmt.Sprintf("PREFIX akt:<%s>\nSELECT ?paper ?a WHERE { ?paper akt:has-author ?a }", rdf.AKTNS)
	fmt.Println("=== broken repository joins the federation ===")
	for round := 1; round <= 4; round++ {
		sum := postSparqlSSE(api.URL, authorships, allTargets...)
		dispatched := false
		for _, pd := range sum.PerDataset {
			if pd.Dataset != "http://broken.example/void" {
				continue
			}
			dispatched = true
			fmt.Printf("  round %d: partial=%v broken attempts=%d error=%q\n",
				round, sum.Partial, pd.Attempts, pd.Error)
		}
		if !dispatched {
			log.Fatal("the planner never selected the broken repository")
		}
		if sum.Bindings == 0 {
			log.Fatal("healthy repositories stopped answering")
		}
	}

	// The mediator's one introspection document: one row per endpoint
	// (breaker, counts, health), cache, per-form query counts.
	var stats sparqlrw.MediatorStats
	getJSON(api.URL+"/api/stats", &stats)
	fmt.Println("\n=== /api/stats ===")
	for _, es := range stats.Federation.Endpoints {
		fmt.Printf("  %-25s breaker=%-9s attempts=%d failures=%d retries=%d rejected=%d score=%.2f\n",
			es.Endpoint, es.Breaker, es.Attempts, es.Failures, es.Retries, es.Rejected, es.Score)
	}
	fmt.Printf("  rewrite-plan cache: %d hits, %d misses (hit rate %.0f%%)\n",
		stats.Federation.CacheHits, stats.Federation.CacheMisses, 100*stats.Federation.CacheHitRate)
	fmt.Printf("  queries by form: %d SELECT\n", stats.Queries.Select)
}

// sseSummary is what the /sparql SSE serialisation reports after the
// bindings: the terminal summary event plus the binding count.
type sseSummary struct {
	Bindings   int
	Duplicates int  `json:"duplicates"`
	Partial    bool `json:"partial"`
	PerDataset []struct {
		Dataset   string `json:"dataset"`
		Solutions int    `json:"solutions"`
		Attempts  int    `json:"attempts"`
		Error     string `json:"error"`
	} `json:"perDataset"`
}

// postSparqlSSE runs one protocol query with Accept: text/event-stream
// over the named targets, returning the parsed terminal summary.
func postSparqlSSE(base, query string, targets ...string) sseSummary {
	form := url.Values{"query": {query}, "target": targets}
	req, err := http.NewRequest(http.MethodPost, base+"/sparql", strings.NewReader(form.Encode()))
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
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

func getJSON(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

func postJSON(url string, body []byte, out any) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		buf := new(bytes.Buffer)
		_, _ = buf.ReadFrom(resp.Body)
		log.Fatalf("%s: %d: %s", url, resp.StatusCode, buf.String())
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
