package federate

import (
	"context"
	"sync"
	"testing"
	"time"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/sparql"
)

// TestSelectPlanDispatchesShardedSubRequests: a request with two shards
// for one endpoint and one sub-query for another, as the join engine
// builds a sharded whole fragment's, runs each shard's own query and
// merges the answers.
func TestSelectPlanDispatchesShardedSubRequests(t *testing.T) {
	fc := newFakeClient()
	var mu sync.Mutex
	queries := map[string][]string{}
	record := func(url, q string) {
		mu.Lock()
		queries[url] = append(queries[url], q)
		mu.Unlock()
	}
	fc.on("ep1", func(context.Context, int) (*eval.Result, error) {
		return answers("http://a.example/1"), nil
	})
	fc.on("ep2", func(context.Context, int) (*eval.Result, error) {
		return answers("http://b.example/2"), nil
	})
	shim := &recordingClient{inner: fc, record: record}

	e := NewExecutor(shim, nil, nil, fastOpts())
	shard1 := sparql.MustParse("SELECT ?a WHERE { VALUES ?p { <http://a.example/p1> } ?p ?x ?a }")
	shard2 := sparql.MustParse("SELECT ?a WHERE { VALUES ?p { <http://a.example/p2> } ?p ?x ?a }")
	res, err := selectAll(context.Background(), e, Request{
		Vars: []string{"a"},
		Targets: []Target{
			{Dataset: "d1", Endpoint: "ep1", Query: shard1, Shard: 1, Shards: 2},
			{Dataset: "d1", Endpoint: "ep1", Query: shard2, Shard: 2, Shards: 2},
			{Dataset: "d2", Endpoint: "ep2", Query: reqQuery, Shard: 1, Shards: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerDataset) != 3 {
		t.Fatalf("per-dataset answers = %d", len(res.PerDataset))
	}
	if res.PerDataset[0].Query != sparql.Format(shard1) || res.PerDataset[0].Shard != 1 || res.PerDataset[0].Shards != 2 {
		t.Fatalf("shard answer = %+v", res.PerDataset[0])
	}
	mu.Lock()
	defer mu.Unlock()
	if len(queries["ep1"]) != 2 || len(queries["ep2"]) != 1 {
		t.Fatalf("dispatched queries = %v", queries)
	}
	sent := map[string]bool{queries["ep1"][0]: true, queries["ep1"][1]: true}
	if !sent[sparql.Format(shard1)] || !sent[sparql.Format(shard2)] {
		t.Fatalf("shard texts not sent: %v", queries["ep1"])
	}
	if queries["ep2"][0] != reqText {
		t.Fatalf("unsharded sub-request received %q, want the request's query %q", queries["ep2"][0], reqText)
	}
}

type recordingClient struct {
	inner  StreamingSelectClient
	record func(url, query string)
}

func (r *recordingClient) SelectRowStream(ctx context.Context, url, query string) (eval.RowStream, error) {
	r.record(url, query)
	return r.inner.SelectRowStream(ctx, url, query)
}

// TestOrderedAdmission: with a single-slot pool, first dispatches must
// follow target order — the property the planner's fastest-first sort
// relies on.
func TestOrderedAdmission(t *testing.T) {
	fc := newFakeClient()
	var mu sync.Mutex
	var order []string
	for _, ep := range []string{"ep1", "ep2", "ep3", "ep4"} {
		ep := ep
		fc.on(ep, func(context.Context, int) (*eval.Result, error) {
			mu.Lock()
			order = append(order, ep)
			mu.Unlock()
			return answers("http://a.example/1"), nil
		})
	}
	opts := fastOpts()
	opts.Concurrency = 1
	e := NewExecutor(fc, nil, nil, opts)
	_, err := selectAll(context.Background(), e, req(
		Target{Dataset: "d3", Endpoint: "ep3"},
		Target{Dataset: "d1", Endpoint: "ep1"},
		Target{Dataset: "d4", Endpoint: "ep4"},
		Target{Dataset: "d2", Endpoint: "ep2"},
	))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"ep3", "ep1", "ep4", "ep2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", order, want)
		}
	}
}

// TestPerTargetTimeoutTightensDeadline: a target-level deadline below the
// executor default cuts off a slow endpoint sooner.
func TestPerTargetTimeoutTightensDeadline(t *testing.T) {
	fc := newFakeClient()
	fc.on("slow", func(ctx context.Context, _ int) (*eval.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	opts := fastOpts()
	opts.EndpointTimeout = time.Hour
	e := NewExecutor(fc, nil, nil, opts)
	start := time.Now()
	res, err := selectAll(context.Background(), e, req(
		Target{Dataset: "d", Endpoint: "slow", Timeout: 30 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("target timeout ignored: took %s", elapsed)
	}
	if res.PerDataset[0].Err == nil {
		t.Fatal("slow endpoint should have timed out")
	}
	// A looser per-target timeout must not extend the default.
	opts.EndpointTimeout = 30 * time.Millisecond
	e2 := NewExecutor(fc, nil, nil, opts)
	start = time.Now()
	if _, err := selectAll(context.Background(), e2, req(
		Target{Dataset: "d", Endpoint: "slow", Timeout: time.Hour})); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("default timeout loosened: took %s", elapsed)
	}
}
