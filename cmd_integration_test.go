package sparqlrw

// Integration smoke tests for the command-line tools, driven through
// `go run` so each binary's flag handling and I/O paths are exercised
// end to end against the fixtures in testdata/.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/workload"
)

var (
	osWriteFile = os.WriteFile
	ioCopy      = io.Copy
)

func runTool(t *testing.T, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go run %v: %v\nstderr:\n%s", args, err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

func TestCmdSparqlRewrite(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run integration test in -short mode")
	}
	out, errOut := runTool(t, "./cmd/sparql-rewrite",
		"-query", "testdata/figure1.rq",
		"-alignments", "testdata/akt2kisti.ttl",
		"-sameas", "testdata/sameas.nt",
		"-trace")
	if !strings.Contains(out, "kisti:hasCreatorInfo") {
		t.Fatalf("rewritten query wrong:\n%s", out)
	}
	if !strings.Contains(out, "PER_00000000105047") {
		t.Fatalf("person URI not translated:\n%s", out)
	}
	if !strings.Contains(errOut, "rewrote 2 triple(s)") {
		t.Fatalf("summary missing:\n%s", errOut)
	}
	if !strings.Contains(errOut, "creator_info") {
		t.Fatalf("trace missing:\n%s", errOut)
	}
}

func TestCmdSparqlRewriteWithFilters(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run integration test in -short mode")
	}
	out, _ := runTool(t, "./cmd/sparql-rewrite",
		"-query", "testdata/figure1.rq",
		"-alignments", "testdata/akt2kisti.ttl",
		"-sameas", "testdata/sameas.nt",
		"-filters", "-urispace", `http://kisti\.rkbexplorer\.com/id/\S*`)
	// With -filters the FILTER's URI constant is translated too.
	if strings.Contains(out, "person-02686") {
		t.Fatalf("FILTER constant not translated:\n%s", out)
	}
}

func TestCmdSparqlCli(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run integration test in -short mode")
	}
	// Run the rewritten-query shape directly over the KISTI sample.
	query := `PREFIX kisti:<http://www.kisti.re.kr/isrl/ResearchRefOntology#>
PREFIX kid:<http://kisti.rkbexplorer.com/id/>
SELECT DISTINCT ?a WHERE {
  ?paper kisti:hasCreatorInfo ?c1 .
  ?c1 kisti:hasCreator kid:PER_00000000105047 .
  ?paper kisti:hasCreatorInfo ?c2 .
  ?c2 kisti:hasCreator ?a .
  FILTER (!(?a = kid:PER_00000000105047))
}`
	tmp := t.TempDir() + "/q.rq"
	if err := writeFile(tmp, query); err != nil {
		t.Fatal(err)
	}
	out, errOut := runTool(t, "./cmd/sparql-cli",
		"-data", "testdata/kisti-sample.ttl", "-query", tmp)
	if !strings.Contains(out, "PER_00000000200001") {
		t.Fatalf("co-author missing:\n%s", out)
	}
	if !strings.Contains(errOut, "1 solution(s)") {
		t.Fatalf("solution count wrong:\n%s", errOut)
	}
}

// A DESCRIBE query prints the resource's outgoing triples as sorted
// N-Triples, like CONSTRUCT.
func TestCmdSparqlCliDescribe(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run integration test in -short mode")
	}
	tmp := t.TempDir() + "/q.rq"
	if err := writeFile(tmp, "DESCRIBE <http://kisti.rkbexplorer.com/id/ART_000000000001-creator-1>"); err != nil {
		t.Fatal(err)
	}
	out, _ := runTool(t, "./cmd/sparql-cli",
		"-data", "testdata/kisti-sample.ttl", "-query", tmp)
	const (
		subj = "<http://kisti.rkbexplorer.com/id/ART_000000000001-creator-1> "
		ns   = "http://www.kisti.re.kr/isrl/ResearchRefOntology#"
	)
	want := subj + "<" + ns + "hasCreator> <http://kisti.rkbexplorer.com/id/PER_00000000200001> .\n" +
		subj + "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <" + ns + "CreatorInfo> .\n"
	if out != want {
		t.Fatalf("DESCRIBE printed:\n%s\nwant:\n%s", out, want)
	}
}

func writeFile(path, content string) error {
	return osWriteFile(path, []byte(content), 0o644)
}

// startMediator builds cmd/mediator, boots it on an ephemeral port with
// any extra flags appended, and returns its base URL.
func startMediator(t *testing.T, extra ...string) string {
	t.Helper()
	bin := t.TempDir() + "/mediator"
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/mediator").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/mediator: %v\n%s", err, out)
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-persons", "20", "-papers", "40"}, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})

	// The binary prints "mediator listening on http://127.0.0.1:PORT/".
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "mediator listening on ") {
				addrCh <- strings.TrimSuffix(strings.TrimPrefix(line, "mediator listening on "), "/")
				return
			}
		}
	}()
	select {
	case base := <-addrCh:
		return base
	case <-time.After(30 * time.Second):
		t.Fatal("mediator did not report its listen address")
		return ""
	}
}

// postSparqlForm posts one protocol query as a form and returns the
// response.
func postSparqlForm(t *testing.T, base, query, accept string) *http.Response {
	t.Helper()
	form := url.Values{"query": {query}}
	req, err := http.NewRequest(http.MethodPost, base+"/sparql", strings.NewReader(form.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestCmdMediatorSparqlForms boots the full three-repository deployment
// and exercises every query form over the W3C protocol endpoint:
//
//   - a planner-selected SELECT (the planner prunes the metrics
//     repository from an AKT query);
//   - a cross-vocabulary CONSTRUCT whose template mixes the AKT and
//     metrics vocabularies — no single endpoint serves it — which must
//     round-trip through planner → decomposer → bound join into a
//     sameAs-deduplicated triple stream;
//   - a federated ASK and a federated DESCRIBE.
func TestCmdMediatorSparqlForms(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary integration test in -short mode")
	}
	base := startMediator(t)

	const (
		aktNS     = "http://www.aktors.org/ontology/portal#"
		metricsNS = "http://metrics.example/ontology#"
		person    = "http://southampton.rkbexplorer.com/id/person-00001"
	)

	// SELECT, planner-selected.
	selectQ := `PREFIX akt:<` + aktNS + `>
SELECT DISTINCT ?a WHERE {
  ?paper akt:has-author <` + person + `> .
  ?paper akt:has-author ?a .
  FILTER (!(?a = <` + person + `>))
}`
	resp := postSparqlForm(t, base, selectQ, "")
	if resp.StatusCode != 200 {
		t.Fatalf("SELECT status = %d", resp.StatusCode)
	}
	var srj struct {
		Results struct {
			Bindings []map[string]struct {
				Value string `json:"value"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&srj); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(srj.Results.Bindings) == 0 {
		t.Fatal("planned /sparql SELECT returned no bindings")
	}

	// The explain endpoint reports the plan: of the three repositories
	// only Southampton and KISTI are relevant to an AKT query.
	body, _ := json.Marshal(map[string]any{"query": selectQ})
	resp2, err := http.Post(base+"/api/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pl struct {
		Decisions []struct {
			Relevant bool `json:"relevant"`
		} `json:"decisions"`
		Fragments []struct {
			Targets []struct {
				Dataset string `json:"dataset"`
			} `json:"targets"`
			Query  string   `json:"query"`
			Shards []string `json:"shards"`
		} `json:"fragments"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&pl); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	relevant := 0
	for _, d := range pl.Decisions {
		if d.Relevant {
			relevant++
		}
	}
	if len(pl.Decisions) != 3 || relevant != 2 || len(pl.Fragments) != 1 ||
		pl.Fragments[0].Query == "" || len(pl.Fragments[0].Targets) != 2 || len(pl.Fragments[0].Shards) != 0 {
		t.Fatalf("plan = %+v", pl)
	}

	// Cross-vocabulary CONSTRUCT: template vocabulary served by no single
	// endpoint; executes via the decomposer's bound joins.
	constructQ := `PREFIX akt:<` + aktNS + `>
PREFIX m:<` + metricsNS + `>
CONSTRUCT {
  ?paper akt:has-author ?a .
  ?paper m:citationCount ?c .
}
WHERE {
  ?paper akt:has-author <` + person + `> .
  ?paper akt:has-author ?a .
  ?paper m:citationCount ?c .
}`
	resp3 := postSparqlForm(t, base, constructQ, "application/n-triples")
	if resp3.StatusCode != 200 {
		t.Fatalf("CONSTRUCT status = %d", resp3.StatusCode)
	}
	ntBody := new(strings.Builder)
	if _, err := ioCopy(ntBody, resp3.Body); err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if strings.Contains(ntBody.String(), "# error:") {
		t.Fatalf("CONSTRUCT stream error:\n%s", ntBody.String())
	}
	var aktTriples, metricTriples int
	seen := map[string]bool{}
	for _, line := range strings.Split(ntBody.String(), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if seen[line] {
			t.Fatalf("duplicate triple survived the sameAs-deduped merge: %s", line)
		}
		seen[line] = true
		if strings.Contains(line, aktNS+"has-author") {
			aktTriples++
		}
		if strings.Contains(line, metricsNS+"citationCount") {
			metricTriples++
		}
	}
	if aktTriples == 0 || metricTriples == 0 {
		t.Fatalf("cross-vocabulary template not fully instantiated: akt=%d metrics=%d\n%s",
			aktTriples, metricTriples, ntBody.String())
	}

	// ASK, federated.
	askQ := `PREFIX akt:<` + aktNS + `> ASK { ?paper akt:has-author <` + person + `> }`
	resp4 := postSparqlForm(t, base, askQ, "")
	var askDoc struct {
		Boolean *bool `json:"boolean"`
	}
	if err := json.NewDecoder(resp4.Body).Decode(&askDoc); err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if askDoc.Boolean == nil || !*askDoc.Boolean {
		t.Fatalf("ASK = %+v, want true", askDoc.Boolean)
	}

	// DESCRIBE, federated: the person's outgoing triples from every
	// repository whose URI space (or sameAs alias space) covers them.
	resp5 := postSparqlForm(t, base, `DESCRIBE <`+person+`>`, "application/n-triples")
	descBody := new(strings.Builder)
	if _, err := ioCopy(descBody, resp5.Body); err != nil {
		t.Fatal(err)
	}
	resp5.Body.Close()
	if resp5.StatusCode != 200 || strings.TrimSpace(descBody.String()) == "" {
		t.Fatalf("DESCRIBE status=%d body=%q", resp5.StatusCode, descBody.String())
	}
	if strings.Contains(descBody.String(), "# error:") {
		t.Fatalf("DESCRIBE stream error:\n%s", descBody.String())
	}
}

// TestCmdMediatorServingTier boots the binary with a tenant
// configuration and proves the serving tier end to end over /sparql:
// a graph-restricted tenant cannot read triples outside its subject
// URI space (ground out-of-space subjects are 403; variable-subject
// queries against the out-of-space repository return nothing), and an
// exhausted quota is a deterministic 429 carrying Retry-After and the
// JSON error document.
func TestCmdMediatorServingTier(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary integration test in -short mode")
	}
	tenants := t.TempDir() + "/tenants.json"
	if err := writeFile(tenants, `{
  "tenants": [
    {"id": "soton-research", "keys": ["soton-key"],
     "policy": {"uriSpaces": ["http://southampton.rkbexplorer.com/id/"]}},
    {"id": "metered", "keys": ["metered-key"], "ratePerSec": 0.001, "burst": 1}
  ]
}`); err != nil {
		t.Fatal(err)
	}
	base := startMediator(t, "-tenants", tenants)

	const (
		aktNS       = "http://www.aktors.org/ontology/portal#"
		kistiPerson = "http://kisti.rkbexplorer.com/id/PER_00000000001"
		kistiVoid   = "http://kisti.rkbexplorer.com/id/void"
		sotonVoid   = "http://southampton.rkbexplorer.com/id/void"
	)

	do := func(key, query string, targets ...string) *http.Response {
		t.Helper()
		form := url.Values{"query": {query}}
		for _, tg := range targets {
			form.Add("target", tg)
		}
		req, err := http.NewRequest(http.MethodPost, base+"/sparql", strings.NewReader(form.Encode()))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	bindings := func(resp *http.Response) int {
		t.Helper()
		defer resp.Body.Close()
		var srj struct {
			Results struct {
				Bindings []map[string]struct {
					Value string `json:"value"`
				} `json:"bindings"`
			} `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&srj); err != nil {
			t.Fatal(err)
		}
		return len(srj.Results.Bindings)
	}

	// A ground subject outside the tenant's URI space is refused with
	// 403 and the standard JSON error document.
	groundQ := `PREFIX akt:<` + aktNS + `>
SELECT ?p WHERE { <` + kistiPerson + `> akt:full-name ?p }`
	resp := do("soton-key", groundQ, kistiVoid)
	if resp.StatusCode != 403 {
		t.Fatalf("ground out-of-space subject: status = %d, want 403", resp.StatusCode)
	}
	var errDoc struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&errDoc); err != nil || errDoc.Error == "" {
		t.Fatalf("403 error document: err=%v doc=%+v", err, errDoc)
	}
	resp.Body.Close()

	// A variable-subject query against the KISTI repository: anonymous
	// sees its rows, the restricted tenant — whose rewritten query
	// carries the injected URI-space filter — sees none of them.
	varQ := `PREFIX akt:<` + aktNS + `>
SELECT ?paper ?a WHERE { ?paper akt:has-author ?a }`
	if n := bindings(do("", varQ, kistiVoid)); n == 0 {
		t.Fatal("anonymous tenant found nothing in KISTI (deployment broken)")
	}
	if n := bindings(do("soton-key", varQ, kistiVoid)); n != 0 {
		t.Fatalf("restricted tenant read %d rows outside its URI space", n)
	}
	// The same tenant still reads its own space.
	if n := bindings(do("soton-key", varQ, sotonVoid)); n == 0 {
		t.Fatal("restricted tenant cannot read its own space")
	}

	// The metered tenant's single token: first request passes, the
	// second is a deterministic 429 with Retry-After.
	resp = do("metered-key", varQ, sotonVoid)
	if resp.StatusCode != 200 {
		t.Fatalf("metered first request: status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = do("metered-key", varQ, sotonVoid)
	if resp.StatusCode != 429 {
		t.Fatalf("metered second request: status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Fatal("429 without X-Trace-Id")
	}
	if err := json.NewDecoder(resp.Body).Decode(&errDoc); err != nil || errDoc.Error == "" {
		t.Fatalf("429 error document: err=%v doc=%+v", err, errDoc)
	}
	resp.Body.Close()
}

// TestCmdMediatorExplainAnalyze drives the EXPLAIN ANALYZE feedback loop
// — the operator spans of the query's trace document — through the built
// binary with -adaptive-stats on:
//
//  1. the initial /api/plan orders the cross-vocabulary query's
//     fragments by raw voiD estimates, putting the badly-underestimated
//     ground-author fragment first;
//  2. explain=trace on the executed query returns a trace whose
//     fragment operator carries estimated vs actual rows and a q-error
//     >= 10 (the voiD estimate is off by an order of magnitude);
//  3. the observation lands in sparqlrw_estimate_qerror on /metrics;
//  4. a repeated /api/plan sees the corrected estimate and flips the
//     fragment order — the accurately-estimated metrics fragment now
//     seeds the join;
//  5. GET /api/trace/{id}?format=text renders the operator table.
func TestCmdMediatorExplainAnalyze(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run integration test in -short mode")
	}
	const (
		aktNS       = "http://www.aktors.org/ontology/portal#"
		metricsNS   = "http://metrics.example/ontology#"
		person      = "http://southampton.rkbexplorer.com/id/person-00001"
		metricsVoid = "http://metrics.example/void"
	)
	// Few persons, many papers: the ground-author pattern's voiD estimate
	// (partition damped /100 for the bound object) undershoots the real
	// fan-out by >= 10x, while the citationCount partition is exact.
	base := startMediator(t, "-adaptive-stats", "-persons", "4", "-papers", "80")

	crossQ := `PREFIX akt:<` + aktNS + `>
PREFIX m:<` + metricsNS + `>
SELECT ?paper ?a ?c WHERE {
  ?paper akt:has-author <` + person + `> .
  ?paper akt:has-author ?a .
  ?paper m:citationCount ?c .
}`

	type fragment struct {
		Targets []struct {
			Dataset string `json:"dataset"`
		} `json:"targets"`
		EstCard int64 `json:"estimatedCardinality"`
	}
	planFragments := func() []fragment {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"query": crossQ})
		resp, err := http.Post(base+"/api/plan", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc struct {
			Fragments []fragment `json:"fragments"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Fragments) < 2 {
			t.Fatalf("query did not decompose: %+v", doc)
		}
		return doc.Fragments
	}
	leadsWithMetrics := func(fs []fragment) bool {
		return len(fs[0].Targets) == 1 && fs[0].Targets[0].Dataset == metricsVoid
	}

	before := planFragments()
	if leadsWithMetrics(before) {
		t.Fatalf("precondition broken: metrics fragment already first: %+v", before)
	}

	// Execute once with explain=trace.
	form := url.Values{"query": {crossQ}, "explain": {"trace"}}
	resp, err := http.PostForm(base+"/sparql", form)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("explain=trace query: status = %d: %s", resp.StatusCode, raw)
	}
	var doc struct {
		Results struct {
			Bindings []json.RawMessage `json:"bindings"`
		} `json:"results"`
		Trace obs.TraceJSON `json:"trace"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("explain=trace response does not parse: %v\n%s", err, raw)
	}
	if len(doc.Results.Bindings) == 0 {
		t.Fatal("cross-vocabulary query returned no rows")
	}
	var sawFragment bool
	for _, op := range doc.Trace.Operators() {
		if op.Attrs["op"] != "fragment" {
			continue
		}
		sawFragment = true
		est, hasEst := op.Attrs["estRows"].(float64)
		actual, hasActual := op.Attrs["actualRows"].(float64)
		qerr, hasQ := op.Attrs["qError"].(float64)
		if !hasEst || !hasActual || !hasQ {
			t.Fatalf("fragment operator lacks cardinalities: %s", raw)
		}
		if qerr < 10 {
			t.Fatalf("fragment q-error = %v, want >= 10 (est %v vs actual %v)", qerr, est, actual)
		}
	}
	if !sawFragment {
		t.Fatalf("no fragment operator in the trace: %s", raw)
	}

	// The calibration samples are on /metrics.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "sparqlrw_estimate_qerror_count") {
		t.Fatal("sparqlrw_estimate_qerror missing from /metrics")
	}

	// The observed cardinality corrects the next plan: the fragment the
	// voiD statistics underestimated no longer seeds the join.
	after := planFragments()
	if !leadsWithMetrics(after) {
		t.Fatalf("fragment order not corrected by observed cardinalities:\nbefore %+v\nafter  %+v", before, after)
	}
	if after[1].EstCard <= before[0].EstCard*5 {
		t.Fatalf("ground-author estimate not corrected: before %d, after %d",
			before[0].EstCard, after[1].EstCard)
	}

	// The human-readable profile serves at /api/trace/{id}?format=text.
	aresp, err := http.Get(base + "/api/trace/" + doc.Trace.ID + "?format=text")
	if err != nil {
		t.Fatal(err)
	}
	atext, _ := io.ReadAll(aresp.Body)
	aresp.Body.Close()
	if aresp.StatusCode != 200 || !strings.Contains(string(atext), "EXPLAIN ANALYZE") {
		t.Fatalf("GET /api/trace/{id}?format=text = %d:\n%s", aresp.StatusCode, atext)
	}
}

// TestCmdMediatorViewLifecycle drives the materialized-view tier through
// the built binary:
//
//  1. the fragments of a repeated cross-vocabulary join are mined and
//     materialized as rows, a view each (visible on /api/views);
//  2. the next repeat is answered from the views with ZERO endpoint round
//     trips (the federation request counters on /api/stats do not move);
//  3. an alignment-KB update through POST /api/alignments invalidates
//     every view — the very next query is never answered stale: each
//     fragment either falls back to federation or hits its
//     already-refreshed view;
//  4. the background refresh re-materializes the views, which then answer
//     again without touching the endpoints.
func TestCmdMediatorViewLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary integration test in -short mode")
	}
	// -result-cache 0: the federated result cache sits in front of the
	// view tier and would absorb the identical repeats this test sends.
	base := startMediator(t, "-views", "-result-cache", "0")

	const (
		aktNS     = "http://www.aktors.org/ontology/portal#"
		metricsNS = "http://metrics.example/ontology#"
		person    = "http://southampton.rkbexplorer.com/id/person-00002"
	)
	crossQ := `PREFIX akt:<` + aktNS + `>
PREFIX m:<` + metricsNS + `>
SELECT ?paper ?a ?c WHERE {
  ?paper akt:has-author <` + person + `> .
  ?paper akt:has-author ?a .
  ?paper m:citationCount ?c .
}`

	getJSON := func(path string, out any) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("GET %s = %d:\n%s", path, resp.StatusCode, body)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	// fedRequests sums dispatched endpoint attempts across the federation:
	// a query answered from a view must not move it.
	fedRequests := func() uint64 {
		var doc struct {
			Federation struct {
				Endpoints []struct {
					Attempts uint64 `json:"attempts"`
				} `json:"endpoints"`
			} `json:"federation"`
		}
		getJSON("/api/stats", &doc)
		var n uint64
		for _, e := range doc.Federation.Endpoints {
			n += e.Attempts
		}
		return n
	}
	type viewDoc struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Rows  int    `json:"rows"`
	}
	type viewsDoc struct {
		Hits      uint64    `json:"hits"`
		Misses    uint64    `json:"misses"`
		Refreshes uint64    `json:"refreshes"`
		Views     []viewDoc `json:"views"`
	}
	getViews := func() viewsDoc {
		var vd viewsDoc
		getJSON("/api/views", &vd)
		return vd
	}
	waitViews := func(what string, cond func(viewsDoc) bool) viewsDoc {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			vd := getViews()
			if cond(vd) {
				return vd
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, vd)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	runQuery := func() int {
		t.Helper()
		form := url.Values{"query": {crossQ}}
		resp, err := http.PostForm(base+"/sparql", form)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("query: status = %d:\n%s", resp.StatusCode, body)
		}
		var srj struct {
			Results struct {
				Bindings []json.RawMessage `json:"bindings"`
			} `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&srj); err != nil {
			t.Fatal(err)
		}
		return len(srj.Results.Bindings)
	}

	// 1. Two federated runs reach the default mining threshold; the
	// manager materializes in the background.
	want := runQuery()
	if want == 0 {
		t.Fatal("cross-vocabulary query returned no rows (deployment broken)")
	}
	if n := runQuery(); n != want {
		t.Fatalf("federated repeat returned %d rows, first run %d", n, want)
	}
	// One view a fragment: the person's papers, their authors and their
	// citation counts.
	ready := func(vd viewsDoc) bool {
		return len(vd.Views) == 3 && !slices.ContainsFunc(vd.Views, func(v viewDoc) bool { return v.State != "ready" })
	}
	vd := waitViews("views to materialize", ready)
	if slices.ContainsFunc(vd.Views, func(v viewDoc) bool { return v.Rows == 0 }) {
		t.Fatalf("a materialized view is empty: %+v", vd)
	}

	// 2. The view answers the same query with zero endpoint round trips.
	r0 := fedRequests()
	if n := runQuery(); n != want {
		t.Fatalf("view-answered query returned %d rows, federated %d", n, want)
	}
	if r1 := fedRequests(); r1 != r0 {
		t.Fatalf("view-answered query made %d endpoint requests", r1-r0)
	}
	if vd := getViews(); vd.Hits == 0 {
		t.Fatalf("view hit not counted: %+v", vd)
	}

	// 3. An alignment-KB update invalidates every view. The next query
	// must not be served from the stale store: either it federates (the
	// request counters move) or the background refresh already finished.
	ttl := align.FormatTurtle([]*align.OntologyAlignment{workload.AKT2KISTI()})
	resp, err := http.Post(base+"/api/alignments", "text/turtle", strings.NewReader(ttl))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("POST /api/alignments = %d:\n%s", resp.StatusCode, body)
	}
	r2 := fedRequests()
	if n := runQuery(); n != want {
		t.Fatalf("post-invalidation query returned %d rows, want %d", n, want)
	}
	if vd := getViews(); fedRequests() == r2 && vd.Refreshes == 0 {
		t.Fatalf("query after invalidation was answered from the stale view: %+v", vd)
	}

	// 4. The refresh re-materializes the view; it answers cleanly again.
	waitViews("views to refresh", func(vd viewsDoc) bool { return vd.Refreshes >= 3 && ready(vd) })
	hitsBefore := getViews().Hits
	r3 := fedRequests()
	if n := runQuery(); n != want {
		t.Fatalf("refreshed view returned %d rows, want %d", n, want)
	}
	if r4 := fedRequests(); r4 != r3 {
		t.Fatalf("refreshed-view query made %d endpoint requests", r4-r3)
	}
	if vd := getViews(); vd.Hits <= hitsBefore {
		t.Fatalf("refreshed view hit not counted: %+v", vd)
	}
}
