package serve

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/raceflag"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
)

// --- tenant configuration and identification ---

func TestParseTenants(t *testing.T) {
	cfg, err := ParseTenants([]byte(`{
		"anonymous": {"ratePerSec": 2},
		"tenants": [
			{"id": "acme", "keys": ["k1", "k2"], "maxConcurrent": 4},
			{"id": "proxy-mapped"}
		]
	}`))
	if err != nil {
		t.Fatalf("ParseTenants: %v", err)
	}
	if len(cfg.Tenants) != 2 || cfg.Anonymous == nil {
		t.Fatalf("unexpected config: %+v", cfg)
	}

	bad := []string{
		`{"tenants":[{"id":""}]}`,
		`{"tenants":[{"id":"anonymous"}]}`,
		`{"tenants":[{"id":"a"},{"id":"a"}]}`,
		`{"tenants":[{"id":"a","keys":["k"]},{"id":"b","keys":["k"]}]}`,
		`{"tenants":[{"id":"a","keys":[""]}]}`,
		`{"tenants":[{"id":"a","policy":{"uriSpaces":[" "]}}]}`,
		`{"tenants":[{"id":"a","policy":{"datasets":[""]}}]}`,
		`{broken`,
	}
	for _, src := range bad {
		if _, err := ParseTenants([]byte(src)); err == nil {
			t.Errorf("ParseTenants(%s): want error", src)
		}
	}
}

func TestIdentify(t *testing.T) {
	cfg, err := ParseTenants([]byte(`{"tenants": [
		{"id": "keyed", "keys": ["secret"]},
		{"id": "mapped"}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewTenantRegistry(cfg)

	req := func(hdr, val string) *Tenant {
		r := httptest.NewRequest("GET", "/sparql", nil)
		if hdr != "" {
			r.Header.Set(hdr, val)
		}
		return reg.Identify(r)
	}

	if got := req("", "").ID; got != AnonymousID {
		t.Errorf("no credential: got %q", got)
	}
	if got := req("X-API-Key", "secret").ID; got != "keyed" {
		t.Errorf("X-API-Key: got %q", got)
	}
	if got := req("Authorization", "Bearer secret").ID; got != "keyed" {
		t.Errorf("Bearer: got %q", got)
	}
	// A bad credential grants no more than none.
	if got := req("X-API-Key", "wrong").ID; got != AnonymousID {
		t.Errorf("unknown key: got %q", got)
	}
	// Header mapping selects key-less tenants only.
	if got := req("X-Tenant-Id", "mapped").ID; got != "mapped" {
		t.Errorf("X-Tenant-Id mapped: got %q", got)
	}
	if got := req("X-Tenant-Id", "keyed").ID; got != AnonymousID {
		t.Errorf("X-Tenant-Id must not select keyed tenants: got %q", got)
	}
}

// --- admission ---

// fakeClock is a deterministic admission/cache clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestAdmissionRateLimit(t *testing.T) {
	reg := NewTenantRegistry(&TenantsConfig{Tenants: []*Tenant{
		{ID: "limited", RatePerSec: 1, Burst: 2},
	}})
	a := NewAdmission(reg)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	a.now = clk.now

	tenant, _ := reg.Get("limited")
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		release, rej := a.Admit(ctx, tenant)
		if rej != nil {
			t.Fatalf("burst admit %d: %v", i, rej)
		}
		release()
	}
	_, rej := a.Admit(ctx, tenant)
	if rej == nil {
		t.Fatal("want 429 once the bucket is empty")
	}
	if rej.Status != 429 || rej.Reason != "rate" {
		t.Fatalf("rejection = %+v", rej)
	}
	if rej.RetryAfterSeconds() != "1" {
		t.Fatalf("Retry-After = %s, want 1", rej.RetryAfterSeconds())
	}

	// One second refills one token.
	clk.advance(time.Second)
	release, rej := a.Admit(ctx, tenant)
	if rej != nil {
		t.Fatalf("after refill: %v", rej)
	}
	release()
}

func TestAdmissionConcurrencyAndQueue(t *testing.T) {
	reg := NewTenantRegistry(&TenantsConfig{Tenants: []*Tenant{
		{ID: "capped", MaxConcurrent: 1, QueueDepth: 1},
	}})
	a := NewAdmission(reg)
	tenant, _ := reg.Get("capped")
	ctx := context.Background()

	release1, rej := a.Admit(ctx, tenant)
	if rej != nil {
		t.Fatal(rej)
	}

	// Second request waits in the queue; releasing the first admits it.
	admitted := make(chan func(), 1)
	go func() {
		r2, rej2 := a.Admit(ctx, tenant)
		if rej2 != nil {
			t.Error(rej2)
		}
		admitted <- r2
	}()
	// Wait for the second request to enter the queue.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st := a.Snapshot(); st[1].Waiting == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Third request finds the queue full: shed with 503.
	_, rej3 := a.Admit(ctx, tenant)
	if rej3 == nil || rej3.Status != 503 || rej3.Reason != "overloaded" {
		t.Fatalf("queue-full rejection = %+v", rej3)
	}

	release1()
	release2 := <-admitted
	release2()

	// A caller abandoning the queue is a 503 "canceled".
	release4, rej := a.Admit(ctx, tenant)
	if rej != nil {
		t.Fatal(rej)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	_, rej5 := a.Admit(cctx, tenant)
	if rej5 == nil || rej5.Reason != "canceled" {
		t.Fatalf("canceled rejection = %+v", rej5)
	}
	release4()

	// Double release must not over-free the semaphore.
	release4()
	st := a.Snapshot()
	if st[1].InFlight != 0 {
		t.Fatalf("inflight = %d after all releases", st[1].InFlight)
	}
}

// TestAdmissionParallelStress hammers the controller from many
// goroutines across several tenants; run with -race this is the
// serving tier's concurrency safety net. Every admit is either released
// or rejected, and the final snapshot must balance.
func TestAdmissionParallelStress(t *testing.T) {
	reg := NewTenantRegistry(&TenantsConfig{
		Anonymous: &Tenant{MaxConcurrent: 8, QueueDepth: 4},
		Tenants: []*Tenant{
			{ID: "a", Keys: []string{"ka"}, RatePerSec: 1e6, MaxConcurrent: 4, QueueDepth: 2},
			{ID: "b", Keys: []string{"kb"}, MaxConcurrent: 2, QueueDepth: 8},
		},
	})
	a := NewAdmission(reg)
	tenants := []*Tenant{reg.Anonymous()}
	for _, id := range []string{"a", "b"} {
		tn, _ := reg.Get(id)
		tenants = append(tenants, tn)
	}

	var admitted, rejected atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tn := tenants[(g+i)%len(tenants)]
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
				release, rej := a.Admit(ctx, tn)
				if rej != nil {
					rejected.Add(1)
				} else {
					admitted.Add(1)
					release()
				}
				cancel()
				_ = a.Snapshot() // racing reader
			}
		}(g)
	}
	wg.Wait()

	if admitted.Load() == 0 {
		t.Fatal("nothing admitted under stress")
	}
	var inflight, waiting int
	var totalAdmitted, totalRejected uint64
	for _, ts := range a.Snapshot() {
		inflight += ts.InFlight
		waiting += ts.Waiting
		totalAdmitted += ts.Admitted
		totalRejected += ts.Rejected
	}
	if inflight != 0 || waiting != 0 {
		t.Fatalf("inflight=%d waiting=%d after drain", inflight, waiting)
	}
	if totalAdmitted != admitted.Load() || totalRejected != rejected.Load() {
		t.Fatalf("snapshot admitted=%d rejected=%d, want %d/%d",
			totalAdmitted, totalRejected, admitted.Load(), rejected.Load())
	}
}

// --- result cache ---

// rows is an Entry's row buffer over one variable.
func rows(vs ...string) eval.RowBuf {
	b := eval.RowBuf{Width: 1}
	for _, v := range vs {
		b.Append(eval.Row{rdf.NewLiteral(v)})
	}
	return b
}

func TestResultCacheHitMissTTL(t *testing.T) {
	c := NewResultCache(4, time.Minute)
	clk := &fakeClock{t: time.Unix(0, 0)}
	c.now = clk.now

	if _, ok := c.Get("k"); ok {
		t.Fatal("hit on empty cache")
	}
	if !c.Put(&Entry{Key: "k", Rows: rows("1")}, c.Version()) {
		t.Fatal("Put refused")
	}
	e, ok := c.Get("k")
	if !ok || e.Rows.N != 1 {
		t.Fatalf("Get after Put: ok=%v e=%+v", ok, e)
	}

	// TTL expiry counts as a miss and an eviction.
	clk.advance(2 * time.Minute)
	if _, ok := c.Get("k"); ok {
		t.Fatal("hit on expired entry")
	}
	m := c.Metrics()
	if m.Hits != 1 || m.Misses != 2 || m.Evictions != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	c := NewResultCache(2, time.Minute)
	c.Put(&Entry{Key: "a"}, c.Version())
	c.Put(&Entry{Key: "b"}, c.Version())
	c.Get("a") // refresh a
	c.Put(&Entry{Key: "c"}, c.Version())
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be present")
	}
}

func TestResultCacheStaleFill(t *testing.T) {
	c := NewResultCache(4, time.Minute)
	v := c.Version()
	c.Flush() // epoch moves while "in flight"
	if c.Put(&Entry{Key: "k"}, v) {
		t.Fatal("stale fill must not be cached")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d", c.Len())
	}
	if !c.Put(&Entry{Key: "k"}, c.Version()) {
		t.Fatal("fresh fill should store")
	}
	c.Flush()
	if _, ok := c.Get("k"); ok || c.Metrics().Invalidations != 1 {
		t.Fatalf("after Flush: entry served %v, invalidations %d; want dropped, 1", ok, c.Metrics().Invalidations)
	}
}

func TestResultCacheRowCap(t *testing.T) {
	c := NewResultCache(4, time.Minute)
	big := make([]string, eval.MaxHeldRows+1)
	if c.Put(&Entry{Key: "big", Rows: rows(big...)}, c.Version()) {
		t.Fatal("oversized entry cached")
	}
}

// TestResultCacheHitAllocations: a hit hands out the stored entry and
// allocates nothing.
func TestResultCacheHitAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	c := NewResultCache(4, time.Minute)
	c.Put(&Entry{Key: "k", Rows: rows("1", "2")}, c.Version())
	if got := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get("k"); !ok {
			t.Fatal("result-cache miss on a stored key")
		}
	}); got != 0 {
		t.Errorf("result-cache hit: %.0f allocations, want 0", got)
	}
}

// --- policy ---

func mustParse(t *testing.T, src string) *sparql.Query {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q
}

func TestRestrictURISpaces(t *testing.T) {
	p := &Policy{URISpaces: []string{"http://acme.example/"}}

	// Variable subjects get an anchored prefix REGEX injected.
	q := mustParse(t, `SELECT ?s WHERE { ?s <http://p> ?o }`)
	rq, changed, err := Restrict(q, p)
	if err != nil || !changed {
		t.Fatalf("Restrict: changed=%v err=%v", changed, err)
	}
	got := sparql.Format(rq)
	if !strings.Contains(got, "REGEX") || !strings.Contains(got, "^(?:http://acme") {
		t.Fatalf("restricted query missing space filter:\n%s", got)
	}
	// The original query is untouched.
	if strings.Contains(sparql.Format(q), "REGEX") {
		t.Fatal("Restrict mutated its input")
	}

	// In-space ground subjects pass; out-of-space ones are refused.
	in := mustParse(t, `SELECT ?o WHERE { <http://acme.example/x> <http://p> ?o }`)
	if _, _, err := Restrict(in, p); err != nil {
		t.Fatalf("in-space ground subject: %v", err)
	}
	out := mustParse(t, `SELECT ?o WHERE { <http://other.example/x> <http://p> ?o }`)
	if _, _, err := Restrict(out, p); !errors.Is(err, ErrDenied) {
		t.Fatalf("out-of-space ground subject: err=%v, want ErrDenied", err)
	}
}

func TestRestrictDeniedPredicates(t *testing.T) {
	p := &Policy{DeniedPredicates: []string{"http://secret"}}

	ground := mustParse(t, `SELECT ?s WHERE { ?s <http://secret> ?o }`)
	if _, _, err := Restrict(ground, p); !errors.Is(err, ErrDenied) {
		t.Fatalf("ground denied predicate: err=%v", err)
	}

	varp := mustParse(t, `SELECT ?s WHERE { ?s ?p ?o }`)
	rq, changed, err := Restrict(varp, p)
	if err != nil || !changed {
		t.Fatalf("Restrict: changed=%v err=%v", changed, err)
	}
	if got := sparql.Format(rq); !strings.Contains(got, "!=") || !strings.Contains(got, "http://secret") {
		t.Fatalf("restricted query missing predicate filter:\n%s", got)
	}
}

func TestRestrictDescribeAndUnion(t *testing.T) {
	p := &Policy{URISpaces: []string{"http://acme.example/"}}

	d := mustParse(t, `DESCRIBE <http://other.example/x>`)
	if _, _, err := Restrict(d, p); !errors.Is(err, ErrDenied) {
		t.Fatalf("DESCRIBE out-of-space: err=%v", err)
	}

	// The restriction reaches into UNION branches.
	u := mustParse(t, `SELECT ?o WHERE { { <http://other.example/x> <http://p> ?o } UNION { ?s <http://p> ?o } }`)
	if _, _, err := Restrict(u, p); !errors.Is(err, ErrDenied) {
		t.Fatalf("UNION branch with out-of-space subject: err=%v", err)
	}
}

func TestRestrictNoopPolicies(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE { ?s <http://p> ?o }`)
	for _, p := range []*Policy{nil, {}, {Datasets: []string{"http://a/void"}}} {
		rq, changed, err := Restrict(q, p)
		if err != nil || changed || rq != q {
			t.Fatalf("policy %+v: changed=%v err=%v", p, changed, err)
		}
	}
}
