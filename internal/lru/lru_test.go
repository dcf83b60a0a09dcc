package lru

import (
	"slices"
	"testing"
)

// keys lists the cache's keys from the least to the most recently used.
func keys(c *Cache[string, int]) []string {
	var out []string
	for k := range c.All() {
		out = append(out, k)
	}
	return out
}

func fill(c *Cache[string, int], ks ...string) {
	for i, k := range ks {
		c.Put(k, i, c.Epoch())
	}
}

func TestGetRefreshesRecency(t *testing.T) {
	c := New[string, int](3)
	fill(c, "a", "b", "c")
	if v, ok := c.Get("a"); !ok || v != 0 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("hit on a missing key")
	}
	if got, want := keys(c), []string{"b", "c", "a"}; !slices.Equal(got, want) {
		t.Fatalf("order after Get(a) = %v, want %v", got, want)
	}
}

// TestEvictsLeastRecentlyUsed: past capacity the oldest key goes, and a
// touch — a Get or a Put of an existing key — saves a key from eviction.
func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](3)
	fill(c, "a", "b", "c")
	c.Get("a") // b is now oldest
	if stored, evicted := c.Put("d", 3, c.Epoch()); !stored || !evicted {
		t.Fatalf("Put(d) at capacity: stored=%v evicted=%v", stored, evicted)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived as the least recently used key")
	}
	if stored, evicted := c.Put("c", 30, c.Epoch()); !stored || evicted {
		t.Fatalf("Put(c) over an existing key: stored=%v evicted=%v", stored, evicted)
	}
	c.Put("e", 4, c.Epoch()) // evicts a: c was refreshed by its Put
	if got, want := keys(c), []string{"d", "c", "e"}; !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if v, _ := c.Get("c"); v != 30 {
		t.Fatalf("c = %d, want the value of its second Put (30)", v)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

func TestRemoveFuncAndClearCount(t *testing.T) {
	c := New[string, int](8)
	fill(c, "a", "b", "c", "d")
	if n := c.RemoveFunc(func(_ string, v int) bool { return v%2 == 0 }); n != 2 {
		t.Fatalf("RemoveFunc dropped %d, want 2", n)
	}
	if got, want := keys(c), []string{"b", "d"}; !slices.Equal(got, want) {
		t.Fatalf("left %v, want %v", got, want)
	}
	if n := c.RemoveFunc(func(string, int) bool { return false }); n != 0 {
		t.Fatalf("RemoveFunc matching nothing dropped %d", n)
	}
	if n := c.Clear(); n != 2 || c.Len() != 0 {
		t.Fatalf("Clear dropped %d, Len = %d; want 2, 0", n, c.Len())
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("hit after Clear")
	}
}

// TestStaleFillRefused is the stale-fill rule: every invalidation, even
// one that drops nothing, refuses a Put computed under an earlier epoch;
// an expiry (Remove) refuses none.
func TestStaleFillRefused(t *testing.T) {
	c := New[string, int](4)
	for name, invalidate := range map[string]func(){
		"RemoveFunc": func() { c.RemoveFunc(func(string, int) bool { return false }) },
		"Clear":      func() { c.Clear() },
	} {
		epoch := c.Epoch()
		invalidate()
		if stored, _ := c.Put("k", 1, epoch); stored {
			t.Fatalf("Put under the epoch before %s was stored", name)
		}
		if c.Len() != 0 {
			t.Fatalf("refused Put left %d entries", c.Len())
		}
		if stored, _ := c.Put("k", 1, c.Epoch()); !stored {
			t.Fatalf("Put under the epoch after %s was refused", name)
		}
		c.Clear()
	}
	fill(c, "x")
	epoch := c.Epoch()
	c.Remove("x")
	c.Remove("never stored")
	if stored, _ := c.Put("y", 1, epoch); !stored {
		t.Fatal("Remove moved the epoch")
	}
	if got := keys(c); !slices.Equal(got, []string{"y"}) {
		t.Fatalf("keys = %v, want [y]", got)
	}
}

// TestAllOldestFirst: All walks from the least to the most recently used
// entry without touching recency, so Putting its output back into an
// empty cache of a smaller capacity keeps the most recent entries — the
// CardStore's persistence round trip.
func TestAllOldestFirst(t *testing.T) {
	c := New[string, int](4)
	fill(c, "a", "b", "c")
	c.Get("a")
	var ks []string
	var vs []int
	for k, v := range c.All() {
		ks = append(ks, k)
		vs = append(vs, v)
	}
	if want := []string{"b", "c", "a"}; !slices.Equal(ks, want) || !slices.Equal(vs, []int{1, 2, 0}) {
		t.Fatalf("All = %v %v, want %v [1 2 0]", ks, vs, want)
	}
	if got := keys(c); !slices.Equal(got, ks) {
		t.Fatalf("All changed recency: %v", got)
	}
	for k := range c.All() {
		if k != "b" {
			t.Fatalf("first yield = %q, want b", k)
		}
		break // an early stop ends the walk
	}
	tight := New[string, int](1)
	for k, v := range c.All() {
		tight.Put(k, v, tight.Epoch())
	}
	if got := keys(tight); !slices.Equal(got, []string{"a"}) {
		t.Fatalf("capacity-1 reload kept %v, want the most recent [a]", got)
	}
}

// TestDroppedSeesEvictionsAndReplacements: Put reports every value it
// drops, the evicted least recently used one and the one a Put over its
// key replaces; Remove, RemoveFunc and Clear report none.
func TestDroppedSeesEvictionsAndReplacements(t *testing.T) {
	c := New[string, int](2)
	var dropped []string
	c.Dropped = func(k string, v int) { dropped = append(dropped, k+"="+string(rune('0'+v))) }
	fill(c, "a", "b")
	c.Put("a", 5, c.Epoch()) // replaces a=0
	c.Put("c", 6, c.Epoch()) // evicts b=1
	c.Remove("a")
	c.RemoveFunc(func(string, int) bool { return true })
	c.Put("d", 7, c.Epoch())
	c.Clear()
	if want := []string{"a=0", "b=1"}; !slices.Equal(dropped, want) {
		t.Fatalf("Dropped saw %v, want %v", dropped, want)
	}
}
