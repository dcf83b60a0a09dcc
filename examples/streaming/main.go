// Streaming: the mediator's streaming-first query path against a slow
// repository. Four replicas of the Southampton data set are registered;
// one of them delays every response by 250 ms. The buffered Collect
// convenience cannot return before that slow endpoint does, while
// Mediator.Query hands over its first merged solution as soon as a
// fast replica yields one — the demo prints the arrival time of each
// solution relative to dispatch, then the per-dataset summary.
//
// It then re-runs the query with Limit: 1, showing the stream cancelling
// the leftover upstream work (the slow endpoint's answer is abandoned).
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"sparqlrw"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/workload"
)

func main() {
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 50, 150
	u := workload.Generate(cfg)

	const slowDelay = 250 * time.Millisecond
	endpointSrv := func(delay time.Duration) *httptest.Server {
		h := sparqlrw.NewEndpointServer("replica", u.Southampton)
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(delay)
			h.ServeHTTP(w, r)
		}))
	}

	dsKB := sparqlrw.NewDatasetKB()
	var targets []string
	for i, delay := range []time.Duration{0, 0, 0, slowDelay} {
		srv := endpointSrv(delay)
		defer srv.Close()
		uri := fmt.Sprintf("http://replica%d.example/void", i)
		label := "fast"
		if delay > 0 {
			label = "slow"
		}
		must(dsKB.Add(&sparqlrw.Dataset{
			URI: uri, Title: fmt.Sprintf("Replica %d (%s)", i, label),
			SPARQLEndpoint: srv.URL, URISpace: workload.SotonURIPattern,
			Vocabularies: []string{rdf.AKTNS},
		}))
		targets = append(targets, uri)
	}
	alignKB := sparqlrw.NewAlignmentKB()
	must(alignKB.Add(workload.AKT2KISTI()))
	mediator := sparqlrw.NewMediator(dsKB, alignKB, u.Coref,
		sparqlrw.WithMediatorRewriteFilters(true))

	query := workload.Figure1Query(1)
	fmt.Printf("federating over %d replicas (one delayed %s)\n\n", len(targets), slowDelay)

	// Streaming: solutions arrive as endpoints answer.
	start := time.Now()
	res, err := mediator.Query(context.Background(), sparqlrw.MediatorQueryRequest{
		Query: query, Targets: targets,
	})
	if err != nil {
		log.Fatal(err)
	}
	qs := res.Bindings()
	n := 0
	for sol, err := range qs.Solutions() {
		if err != nil {
			log.Fatal(err)
		}
		n++
		fmt.Printf("  solution %d after %7s  %v\n", n, time.Since(start).Round(time.Millisecond), sol["a"])
	}
	summary, err := qs.Summary()
	if err != nil {
		log.Fatal(err)
	}
	res.Close()
	fmt.Printf("\nstream done after %s: %d solutions, %d duplicates dropped\n",
		time.Since(start).Round(time.Millisecond), n, summary.Duplicates)
	for _, da := range summary.PerDataset {
		fmt.Printf("  %-32s %3d solutions in %7s\n", da.Dataset, da.Solutions, da.Latency.Round(time.Millisecond))
	}

	// Buffered comparison: Collect waits for everyone.
	start = time.Now()
	resBuf, err := mediator.Query(context.Background(), sparqlrw.MediatorQueryRequest{
		Query: query, Targets: targets,
	})
	if err != nil {
		log.Fatal(err)
	}
	fr, err := resBuf.Bindings().Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbuffered Collect returned all %d solutions after %s (slow endpoint bound)\n",
		len(fr.Solutions), time.Since(start).Round(time.Millisecond))

	// Limit: take one solution, cancel the rest of the fan-out.
	start = time.Now()
	res2, err := mediator.Query(context.Background(), sparqlrw.MediatorQueryRequest{
		Query: query, Targets: targets, Limit: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	for sol, err := range res2.Bindings().Solutions() {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nLimit 1: first solution %v after %s; remaining work cancelled\n",
			sol["a"], time.Since(start).Round(time.Millisecond))
	}
	res2.Close()
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
