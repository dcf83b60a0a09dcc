// Planning: voiD-driven source selection (internal/plan) and the one
// planner built on it (internal/decompose) in front of the concurrent
// executor.
//
// Four SPARQL endpoints join the federation — Southampton (AKT),
// KISTI (its own vocabulary, reachable through the 24-alignment KB), and
// DBpedia/ECS stand-ins whose vocabularies no alignment connects to AKT.
// A federated query that names no targets is planned as one whole
// fragment over the data sets that answer it:
//
//  1. source selection prunes DBpedia and ECS (their voiD profiles say
//     they cannot answer an AKT query), so only two endpoints see
//     traffic;
//  2. a VALUES-seeded query shards into batches that recombine under the
//     owl:sameAs merge;
//  3. after a warm-up, dispatch order follows observed endpoint latency
//     (fastest first) and slow endpoints get proportional deadlines.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"sparqlrw"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/workload"
)

func main() {
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 50, 150
	u := workload.Generate(cfg)

	// Tier 3: four repositories, each counting the requests it receives.
	counted := func(name string, st *sparqlrw.Store, delay time.Duration) (*httptest.Server, *atomic.Int64) {
		var hits atomic.Int64
		h := sparqlrw.NewEndpointServer(name, st)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			time.Sleep(delay)
			h.ServeHTTP(w, r)
		}))
		return srv, &hits
	}
	soton, sotonHits := counted("southampton", u.Southampton, 0)
	defer soton.Close()
	kisti, kistiHits := counted("kisti", u.KISTI, 10*time.Millisecond) // the slow repository
	defer kisti.Close()
	dbp, dbpHits := counted("dbpedia", sparqlrw.NewStore(), 0)
	defer dbp.Close()
	ecs, ecsHits := counted("ecs", sparqlrw.NewStore(), 0)
	defer ecs.Close()

	// Tier 2: voiD profiles for all four, alignments reaching only KISTI.
	dsKB := sparqlrw.NewDatasetKB()
	for _, d := range []*sparqlrw.Dataset{
		{URI: workload.SotonVoidURI, Title: "Southampton RKB", SPARQLEndpoint: soton.URL,
			URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS}},
		{URI: workload.KistiVoidURI, Title: "KISTI", SPARQLEndpoint: kisti.URL,
			URISpace: workload.KistiURIPattern, Vocabularies: []string{rdf.KISTINS}},
		{URI: workload.DBPVoidURI, Title: "DBpedia", SPARQLEndpoint: dbp.URL,
			URISpace: workload.DBPURIPattern, Vocabularies: []string{rdf.DBONS}},
		{URI: workload.ECSVoidURI, Title: "ECS", SPARQLEndpoint: ecs.URL,
			URISpace: workload.ECSURIPattern, Vocabularies: []string{rdf.ECSNS}},
	} {
		must(dsKB.Add(d))
	}
	alignKB := sparqlrw.NewAlignmentKB()
	must(alignKB.Add(workload.AKT2KISTI()))
	must(alignKB.Add(workload.ECS2DBpedia()))

	// Tier 1: the mediator; the planner is on by default. VALUES blocks
	// shard into batches of 3 rows (step 3).
	mediator := sparqlrw.NewMediator(dsKB, alignKB, u.Coref,
		sparqlrw.WithMediatorRewriteFilters(true),
		sparqlrw.WithMediatorDecomposer(sparqlrw.DecomposerOptions{ValuesBatch: 3}))
	api := httptest.NewServer(sparqlrw.MediatorHandler(mediator))
	defer api.Close()

	// 1. Explain the plan for the Figure-1 query: 2 of 4 repositories kept.
	queryText := workload.Figure1Query(1)
	var pl plan
	postJSON(api.URL+"/api/plan", map[string]any{"query": queryText}, &pl)
	fmt.Println("=== /api/plan: source selection over 4 repositories ===")
	for _, d := range pl.Decisions {
		verdict := "PRUNED "
		if d.Relevant {
			verdict = "KEPT   "
		}
		fmt.Printf("  %s %-45s %s\n", verdict, d.Dataset, strings.Join(d.Reasons, "; "))
	}
	whole := pl.Fragments[0]
	fmt.Printf("  -> %d sub-queries dispatched instead of 4\n\n", len(whole.Targets)*max(len(whole.Shards), 1))

	// 2. Run it with no targets over the protocol endpoint: the planner
	// selects them; the summary comes from the Go API's Summary.
	res, err := mediator.Query(context.Background(), sparqlrw.MediatorQueryRequest{Query: queryText})
	must(err)
	fr, err := res.Bindings().Collect()
	must(err)
	fmt.Println("=== planner-selected federated SELECT ===")
	for _, pd := range fr.PerDataset {
		fmt.Printf("  %-45s %d raw answers in %s\n", pd.Dataset, pd.Solutions, pd.Latency.Round(time.Millisecond))
	}
	fmt.Printf("  merged: %d co-authors (%d duplicates collapsed)\n", len(fr.Solutions), fr.Duplicates)
	fmt.Printf("  endpoint hits: soton=%d kisti=%d dbpedia=%d ecs=%d\n\n",
		sotonHits.Load(), kistiHits.Load(), dbpHits.Load(), ecsHits.Load())

	// 3. VALUES sharding: seed the query with 9 papers, batch size 3.
	var sb strings.Builder
	sb.WriteString("PREFIX akt:<" + rdf.AKTNS + ">\nSELECT DISTINCT ?a WHERE {\n  VALUES ?paper {")
	for i := 0; i < 9; i++ {
		sb.WriteString(" <" + workload.SotonPaper(i).Value + ">")
	}
	sb.WriteString(" }\n  ?paper akt:has-author ?a .\n}")
	res2, err := mediator.Query(context.Background(), sparqlrw.MediatorQueryRequest{Query: sb.String()})
	must(err)
	fr2, err := res2.Bindings().Collect()
	must(err)
	fmt.Println("=== VALUES sharding (9 rows, batch 3) ===")
	// Shards dispatch in the planner's latency order; list them by data set.
	sort.SliceStable(fr2.PerDataset, func(i, j int) bool {
		return fr2.PerDataset[i].Dataset < fr2.PerDataset[j].Dataset
	})
	for _, pd := range fr2.PerDataset {
		fmt.Printf("  %-45s shard %d/%d -> %d answers\n", pd.Dataset, pd.Shard, pd.Shards, pd.Solutions)
	}
	fmt.Printf("  merged: %d distinct authors across all shards\n\n", len(fr2.Solutions))

	// 4. Adaptive ordering: with latency history accumulated, the next
	// plan dispatches the fast repository first and bounds the slow one.
	var pl2 plan
	postJSON(api.URL+"/api/plan", map[string]any{"query": queryText}, &pl2)
	fmt.Println("=== adaptive ordering from observed latency ===")
	for i, sr := range pl2.Fragments[0].Targets {
		deadline := "default"
		if sr.TimeoutMS > 0 {
			deadline = fmt.Sprintf("%.0fms", sr.TimeoutMS)
		}
		fmt.Printf("  dispatch %d: %-45s deadline %s\n", i+1, sr.Dataset, deadline)
	}

	var stats sparqlrw.MediatorStats
	getJSON(api.URL+"/api/stats", &stats)
	fmt.Printf("\nplanner stats: %+v\n", *stats.Planner)
	fmt.Printf("queries by form: %d SELECT\n", stats.Queries.Select)
}

// plan is what the example reads of /api/plan's answer: the decisions
// per data set, and the query's whole fragment — its targets in dispatch
// order with their deadlines, and its VALUES shards.
type plan struct {
	Decisions []struct {
		Dataset  string   `json:"dataset"`
		Relevant bool     `json:"relevant"`
		Reasons  []string `json:"reasons"`
	} `json:"decisions"`
	Fragments []struct {
		Targets []struct {
			Dataset   string  `json:"dataset"`
			TimeoutMS float64 `json:"timeoutMs"`
		} `json:"targets"`
		Shards []string `json:"shards"`
	} `json:"fragments"`
}

func postJSON(url string, req any, out any) {
	body, err := json.Marshal(req)
	must(err)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	must(err)
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST %s: %s\n%s", url, resp.Status, buf.String())
	}
	must(json.Unmarshal(buf.Bytes(), out))
}

func getJSON(url string, out any) {
	resp, err := http.Get(url)
	must(err)
	defer resp.Body.Close()
	must(json.NewDecoder(resp.Body).Decode(out))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
