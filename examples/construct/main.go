// Construct: a cross-vocabulary CONSTRUCT federated over the three demo
// repositories (Southampton/AKT, KISTI, citation metrics). The template
// mixes the AKT and metrics vocabularies, so no single endpoint serves
// it; the WHERE clause spans both vocabularies too, so the mediator's
// planner finds no covering data set and the per-BGP decomposer splits
// the pattern into exclusive groups joined with VALUES bound joins. The
// constructed triples stream out of Mediator.Query as a lazy,
// owl:sameAs-deduplicated graph — the "rewriting as CONSTRUCT-driven
// integration" path — and the same query round-trips over the W3C
// SPARQL-Protocol endpoint as streamed Turtle.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"

	"sparqlrw"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/workload"
)

func main() {
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 40, 120
	u := workload.Generate(cfg)

	// Tier 3: the three demo repositories.
	soton := httptest.NewServer(sparqlrw.NewEndpointServer("southampton", u.Southampton))
	defer soton.Close()
	kisti := httptest.NewServer(sparqlrw.NewEndpointServer("kisti", u.KISTI))
	defer kisti.Close()
	metricsStore := workload.MetricsStore(u)
	metrics := httptest.NewServer(sparqlrw.NewEndpointServer("metrics", metricsStore))
	defer metrics.Close()

	// Tier 2: voiD profiles (with statistics for the decomposer's
	// cardinality estimator) and the AKT→KISTI alignments.
	dsKB := sparqlrw.NewDatasetKB()
	must(dsKB.Add(&sparqlrw.Dataset{
		URI: workload.SotonVoidURI, Title: "Southampton RKB",
		SPARQLEndpoint: soton.URL, URISpace: workload.SotonURIPattern,
		Vocabularies: []string{rdf.AKTNS},
		Triples:      int64(u.Southampton.Size()),
		PropertyPartitions: map[string]int64{
			rdf.AKTHasAuthor: int64(u.Southampton.PredicateCount(rdf.NewIRI(rdf.AKTHasAuthor))),
		},
	}))
	must(dsKB.Add(&sparqlrw.Dataset{
		URI: workload.KistiVoidURI, Title: "KISTI",
		SPARQLEndpoint: kisti.URL, URISpace: workload.KistiURIPattern,
		Vocabularies: []string{rdf.KISTINS},
		Triples:      int64(u.KISTI.Size()),
	}))
	must(dsKB.Add(&sparqlrw.Dataset{
		URI: workload.MetricsVoidURI, Title: "Citation metrics",
		SPARQLEndpoint: metrics.URL, URISpace: workload.SotonURIPattern,
		Vocabularies: []string{workload.MetricsNS},
		Triples:      int64(metricsStore.Size()),
		PropertyPartitions: map[string]int64{
			workload.MetricsCitationCount: int64(metricsStore.PredicateCount(rdf.NewIRI(workload.MetricsCitationCount))),
		},
	}))
	alignKB := sparqlrw.NewAlignmentKB()
	must(alignKB.Add(workload.AKT2KISTI()))

	mediator := sparqlrw.NewMediator(dsKB, alignKB, u.Coref,
		sparqlrw.WithMediatorRewriteFilters(true))

	// The cross-vocabulary CONSTRUCT: template and WHERE both span AKT and
	// metrics, which no single repository serves.
	person := workload.SotonPerson(2)
	query := `PREFIX akt:<` + rdf.AKTNS + `>
PREFIX m:<` + workload.MetricsNS + `>
CONSTRUCT {
  ?paper akt:has-author ?a .
  ?paper m:citationCount ?c .
}
WHERE {
  ?paper akt:has-author <` + person.Value + `> .
  ?paper akt:has-author ?a .
  ?paper m:citationCount ?c .
}`
	fmt.Println("=== cross-vocabulary CONSTRUCT ===")
	fmt.Println(query)

	res, err := mediator.Query(context.Background(), sparqlrw.MediatorQueryRequest{Query: query})
	must(err)
	defer res.Close()
	if res.Form() != sparqlrw.QueryFormConstruct {
		log.Fatalf("unexpected form %s", res.Form())
	}
	if dcm := res.Decomposition(); dcm != nil {
		fmt.Printf("\ndecomposed into %d fragments over %v\n", len(dcm.Fragments), dcm.Datasets())
	}
	// The stream's order follows whichever fragment answers first: the
	// report shows the first triples in sorted order.
	var triples []string
	for t, err := range res.Graph().Triples() {
		must(err)
		triples = append(triples, t.String())
	}
	slices.Sort(triples)
	for _, t := range triples[:min(6, len(triples))] {
		fmt.Println("  ", t, ".")
	}
	sum, err := res.Summary()
	must(err)
	fmt.Printf("  ... %d triples total, %d duplicates collapsed\n", len(triples), sum.Duplicates)

	// The same query over the W3C protocol endpoint, as streamed Turtle.
	api := httptest.NewServer(sparqlrw.MediatorHandler(mediator))
	defer api.Close()
	form := url.Values{"query": {query}}
	req, err := http.NewRequest(http.MethodPost, api.URL+"/sparql", strings.NewReader(form.Encode()))
	must(err)
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("Accept", "text/turtle")
	resp, err := http.DefaultClient.Do(req)
	must(err)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	must(err)
	fmt.Printf("\n=== POST /sparql (Accept: text/turtle, %s) ===\n", resp.Header.Get("Content-Type"))
	// The prefixes as written, then the first triple lines in sorted order.
	var lines []string
	for line := range strings.Lines(string(body)) {
		if line = strings.TrimSuffix(line, "\n"); strings.HasPrefix(line, "@prefix") {
			fmt.Println(" ", line)
		} else if line != "" {
			lines = append(lines, line)
		}
	}
	slices.Sort(lines)
	for _, line := range lines[:min(4, len(lines))] {
		fmt.Println(" ", line)
	}
	fmt.Println("  ...")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
