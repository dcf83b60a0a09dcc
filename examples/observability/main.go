// Observability: end-to-end query tracing and metrics over the federated
// mediator. Starts three SPARQL repositories (Southampton/AKT, KISTI, a
// citation-metrics store speaking a second vocabulary over the same paper
// URIs), runs a cross-vocabulary query with the explain=trace protocol
// extension, and pretty-prints the span tree the mediator grew for it —
// source selection, BGP decomposition, every per-endpoint sub-query with
// its retries, rows, bytes and time-to-first-solution. It then scrapes
// GET /metrics and shows the Prometheus series the same query moved.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"

	"sparqlrw"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/workload"
)

func main() {
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 40, 120
	u := workload.Generate(cfg)

	// Tier 3: three repositories. The metrics store answers a vocabulary
	// no alignment reaches, so the cross-vocabulary query below only runs
	// by decomposing — which makes for an interesting trace.
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
		Vocabularies: []string{rdf.AKTNS}, Triples: int64(u.Southampton.Size()),
	}))
	must(dsKB.Add(&sparqlrw.Dataset{
		URI: workload.KistiVoidURI, Title: "KISTI",
		SPARQLEndpoint: kisti.URL, URISpace: workload.KistiURIPattern,
		Vocabularies: []string{rdf.KISTINS}, Triples: int64(u.KISTI.Size()),
	}))
	must(dsKB.Add(&sparqlrw.Dataset{
		URI: workload.MetricsVoidURI, Title: "Citation metrics",
		SPARQLEndpoint: metrics.URL, URISpace: workload.SotonURIPattern,
		Vocabularies: []string{workload.MetricsNS},
	}))
	alignKB := sparqlrw.NewAlignmentKB()
	must(alignKB.Add(workload.AKT2KISTI()))

	m := sparqlrw.NewMediator(dsKB, alignKB, u.Coref,
		sparqlrw.WithMediatorRewriteFilters(true),
		sparqlrw.WithMediatorObservability(sparqlrw.ObservabilityOptions{
			SlowQuery: -1, // demo queries are fast; keep the log quiet
		}))
	srv := httptest.NewServer(sparqlrw.MediatorHandler(m))
	defer srv.Close()

	// One cross-vocabulary query with the explain=trace extension: the
	// SRJ response document gains a trailing "trace" member.
	query := workload.CrossVocabularyQuery(2)
	fmt.Println("== query (spans two vocabularies; no single repository covers it) ==")
	fmt.Println(query)

	resp, err := http.PostForm(srv.URL+"/sparql", url.Values{
		"query": {query}, "explain": {"trace"},
	})
	must(err)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	must(err)
	fmt.Printf("\nX-Trace-Id: %s\n", resp.Header.Get("X-Trace-Id"))

	var doc struct {
		Results struct {
			Bindings []json.RawMessage `json:"bindings"`
		} `json:"results"`
		Trace struct {
			ID         string  `json:"id"`
			DurationMS float64 `json:"durationMs"`
			Root       span    `json:"root"`
		} `json:"trace"`
	}
	must(json.Unmarshal(body, &doc))
	fmt.Printf("solutions: %d\n\n== span tree (%s, %.2fms) ==\n",
		len(doc.Results.Bindings), doc.Trace.ID, doc.Trace.DurationMS)
	printSpan(doc.Trace.Root, 0)

	// The same trace stays retrievable from the ring for a while:
	// GET /api/trace lists recent traces, /api/trace/{id} serves one.
	list, err := http.Get(srv.URL + "/api/trace")
	must(err)
	var recent struct {
		Total  int `json:"total"`
		Traces []struct {
			ID string `json:"id"`
		} `json:"traces"`
	}
	must(json.NewDecoder(list.Body).Decode(&recent))
	list.Body.Close()
	fmt.Printf("\n/api/trace retains %d trace(s); newest %s\n", recent.Total, recent.Traces[0].ID)

	// Scrape /metrics and show what the query moved. Every layer —
	// mediator, planner, decomposer, federation executor, HTTP mux —
	// registers into the one registry behind this endpoint.
	mresp, err := http.Get(srv.URL + "/metrics")
	must(err)
	exposition, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	must(err)

	fams, err := sparqlrw.ParsePrometheusText(strings.NewReader(string(exposition)))
	must(err)
	fmt.Printf("\n== /metrics excerpt (%d families total) ==\n", len(fams))
	show := map[string]bool{
		"sparqlrw_queries_total":            true,
		"sparqlrw_query_seconds":            true,
		"sparqlrw_query_ttfs_seconds":       true,
		"sparqlrw_solutions_streamed_total": true,
		"sparqlrw_plan_plans_total":         true,
		"sparqlrw_decompose_runs_total":     true,
		"sparqlrw_federate_attempts_total":  true,
		"sparqlrw_federate_solutions_total": true,
		"sparqlrw_http_requests_total":      true,
	}
	names := make([]string, 0, len(fams))
	for _, f := range fams {
		if show[f.Name] {
			names = append(names, f.Name)
		}
	}
	sort.Strings(names)
	for _, line := range strings.Split(string(exposition), "\n") {
		if strings.HasPrefix(line, "# ") || strings.Contains(line, "_bucket{") {
			continue // keep the excerpt short: skip HELP/TYPE and histogram buckets
		}
		for _, name := range names {
			if strings.HasPrefix(line, name) {
				fmt.Println(line)
				break
			}
		}
	}
}

// span mirrors the wire shape of one trace span.
type span struct {
	Name       string         `json:"name"`
	StartMS    float64        `json:"startMs"`
	DurationMS float64        `json:"durationMs"`
	Attrs      map[string]any `json:"attrs"`
	Children   []span         `json:"children"`
}

// printSpan renders the span tree with indentation, durations and the
// most useful attributes inline.
func printSpan(s span, depth int) {
	var attrs []string
	for _, k := range sortedKeys(s.Attrs) {
		attrs = append(attrs, fmt.Sprintf("%s=%v", k, s.Attrs[k]))
	}
	line := fmt.Sprintf("%s%s  %.2fms", strings.Repeat("  ", depth), s.Name, s.DurationMS)
	if len(attrs) > 0 {
		line += "  [" + strings.Join(attrs, " ") + "]"
	}
	fmt.Println(line)
	for _, c := range s.Children {
		printSpan(c, depth+1)
	}
}

func sortedKeys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
