package federate

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparqlrw/internal/raceflag"
)

// qk is the key of a rewrite of query text q alone.
func qk(q string) PlanKey { return PlanKey{Query: q} }

func mustDo(t *testing.T, c *PlanCache[string], key PlanKey, val string) (string, bool) {
	t.Helper()
	got, cached, err := c.Do(key, func() (string, error) { return val, nil })
	if err != nil {
		t.Fatal(err)
	}
	return got, cached
}

func TestCacheHitAndMiss(t *testing.T) {
	c := NewPlanCache[string](4)
	if got, cached := mustDo(t, c, qk("k1"), "v1"); got != "v1" || cached {
		t.Fatalf("first Do = %q cached=%v", got, cached)
	}
	// Second Do must not run compute.
	got, cached, err := c.Do(qk("k1"), func() (string, error) {
		t.Fatal("compute ran on a cache hit")
		return "", nil
	})
	if err != nil || got != "v1" || !cached {
		t.Fatalf("hit = %q cached=%v err=%v", got, cached, err)
	}
	if hits, misses := c.Metrics(); hits != 1 || misses != 1 {
		t.Fatalf("metrics = %d/%d, want 1/1", hits, misses)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := NewPlanCache[string](2)
	mustDo(t, c, qk("k1"), "v1")
	mustDo(t, c, qk("k2"), "v2")
	mustDo(t, c, qk("k1"), "ignored") // touch k1: k2 becomes the LRU entry
	mustDo(t, c, qk("k3"), "v3")      // evicts k2
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, cached := mustDo(t, c, qk("k1"), "recomputed1"); !cached {
		t.Fatal("k1 evicted despite being recently used")
	}
	if _, cached := mustDo(t, c, qk("k2"), "recomputed2"); cached {
		t.Fatal("k2 not evicted")
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewPlanCache[string](4)
	if _, _, err := c.Do(qk("k"), func() (string, error) { return "", errors.New("boom") }); err == nil {
		t.Fatal("error lost")
	}
	if c.Len() != 0 {
		t.Fatal("failed compute was cached")
	}
	if got, cached := mustDo(t, c, qk("k"), "v"); got != "v" || cached {
		t.Fatal("key poisoned by earlier error")
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewPlanCache[string](4)
	var computes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := c.Do(qk("k"), func() (string, error) {
				computes.Add(1)
				time.Sleep(10 * time.Millisecond)
				return "v", nil
			})
			if err != nil || got != "v" {
				t.Errorf("Do = %q %v", got, err)
			}
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	hits, misses := c.Metrics()
	if misses != 1 || hits != 15 {
		t.Fatalf("metrics = %d hits / %d misses, want 15/1", hits, misses)
	}
}

func TestCacheDistinctKeysComputeIndependently(t *testing.T) {
	c := NewPlanCache[string](64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		q := fmt.Sprintf("k%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, _ := mustDoConc(c, qk(q), q+"-v"); got != q+"-v" {
				t.Errorf("Do(%s) = %q", q, got)
			}
		}()
	}
	wg.Wait()
	if c.Len() != 8 {
		t.Fatalf("len = %d, want 8", c.Len())
	}
}

func mustDoConc(c *PlanCache[string], key PlanKey, val string) (string, bool) {
	got, cached, _ := c.Do(key, func() (string, error) { return val, nil })
	return got, cached
}

func TestNilCachePassesThrough(t *testing.T) {
	var c *PlanCache[string] // = NewPlanCache[string](0)
	if NewPlanCache[string](0) != nil || NewPlanCache[string](-1) != nil {
		t.Fatal("non-positive capacity must disable the cache")
	}
	calls := 0
	for i := 0; i < 3; i++ {
		got, cached, err := c.Do(qk("k"), func() (string, error) { calls++; return "v", nil })
		if err != nil || got != "v" || cached {
			t.Fatalf("nil cache Do = %q cached=%v err=%v", got, cached, err)
		}
	}
	if calls != 3 {
		t.Fatalf("nil cache memoised: %d calls", calls)
	}
	if c.Len() != 0 {
		t.Fatal("nil cache Len != 0")
	}
	if h, m := c.Metrics(); h != 0 || m != 0 {
		t.Fatal("nil cache metrics not zero")
	}
}

func TestCacheInvalidateByDataset(t *testing.T) {
	c := NewPlanCache[string](8)
	mustDo(t, c, PlanKey{"q1", "src", "dsA"}, "planA1")
	mustDo(t, c, PlanKey{"q2", "src", "dsA"}, "planA2")
	mustDo(t, c, PlanKey{"q1", "src", "dsB"}, "planB")
	if n := c.Invalidate(func(ds string) bool { return ds == "dsA" }); n != 2 {
		t.Fatalf("invalidated = %d, want 2", n)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	// dsA keys recompute, dsB still hits.
	if _, cached := mustDo(t, c, PlanKey{"q1", "src", "dsA"}, "planA1'"); cached {
		t.Fatal("invalidated key served from cache")
	}
	if got, cached := mustDo(t, c, PlanKey{"q1", "src", "dsB"}, "x"); !cached || got != "planB" {
		t.Fatalf("dsB = %q cached=%v", got, cached)
	}
}

func TestCacheInvalidateAll(t *testing.T) {
	c := NewPlanCache[string](8)
	mustDo(t, c, PlanKey{"q1", "src", "dsA"}, "a")
	mustDo(t, c, PlanKey{"q2", "src", "dsB"}, "b")
	if n := c.Invalidate(nil); n != 2 || c.Len() != 0 {
		t.Fatalf("flush removed %d, len=%d", n, c.Len())
	}
	// A nil cache flushes harmlessly.
	var nilCache *PlanCache[string]
	if n := nilCache.Invalidate(nil); n != 0 {
		t.Fatalf("nil cache invalidated %d", n)
	}
}

func TestCacheInvalidateMarksFlightsStale(t *testing.T) {
	c := NewPlanCache[string](8)
	key := PlanKey{"q", "src", "dsA"}
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = c.Do(key, func() (string, error) {
			close(started)
			<-release
			return "stale-plan", nil
		})
	}()
	<-started
	c.Invalidate(func(ds string) bool { return ds == "dsA" })
	close(release)
	<-done
	// The stale in-flight result must not have been inserted.
	if _, cached := mustDo(t, c, key, "fresh-plan"); cached {
		t.Fatal("stale in-flight plan was cached despite invalidation")
	}
}

// TestPlanCacheHitAllocations: a hit allocates nothing, its key built
// from the three strings as the executor builds it included.
func TestPlanCacheHitAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	c := NewPlanCache[string](4)
	query := strings.Repeat("SELECT ?s WHERE { ?s ?p ?o } ", 8)
	src, ds := "http://src.example/ont#", "http://ds.example/void"
	compute := func() (string, error) { return "plan", nil }
	mustDo(t, c, PlanKey{query, src, ds}, "plan")
	if got := testing.AllocsPerRun(100, func() {
		if _, cached, _ := c.Do(PlanKey{query, src, ds}, compute); !cached {
			t.Fatal("plan-cache miss on a cached key")
		}
	}); got != 0 {
		t.Errorf("plan-cache hit: %.0f allocations, want 0", got)
	}
}
