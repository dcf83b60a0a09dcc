package obs

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sparqlrw/internal/rdf"
)

// TestQError pins the q-error measure against hand-computed goldens:
// symmetric in over- and under-estimation, always >= 1, and guarded
// against zero actuals.
func TestQError(t *testing.T) {
	cases := []struct {
		est, actual float64
		want        float64
	}{
		{100, 100, 1},   // perfect
		{1000, 100, 10}, // 10x over-estimate
		{100, 1000, 10}, // 10x under-estimate, same error
		{50, 10, 5},     // over
		{10, 50, 5},     // under
		{0, 0, 1},       // nothing estimated, nothing produced
		{100, 0, 100},   // zero actual clamps to 1, no division by zero
		{0, 100, 100},   // zero estimate likewise
		{-5, 10, 10},    // negative inputs clamp to 1
		{1, 1, 1},
		{3, 2, 1.5},
	}
	for _, c := range cases {
		if got := QError(c.est, c.actual); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("QError(%v, %v) = %v, want %v", c.est, c.actual, got, c.want)
		}
	}
}

func TestPatternShape(t *testing.T) {
	for _, c := range []struct {
		s, o bool
		want string
	}{
		{false, false, "??"},
		{true, false, "g?"},
		{false, true, "?g"},
		{true, true, "gg"},
	} {
		if got := PatternShape(c.s, c.o); got != c.want {
			t.Errorf("PatternShape(%v, %v) = %q, want %q", c.s, c.o, got, c.want)
		}
	}
}

// TestPatternStatKey pins the one cell key writers and readers share: an
// rdf:type pattern is keyed by its class, whose object position then
// counts as part of the term, not as a ground object.
func TestPatternStatKey(t *testing.T) {
	x, y := rdf.NewVar("x"), rdf.NewVar("y")
	p, class, e := rdf.NewIRI("http://v/p"), rdf.NewIRI("http://v/C"), rdf.NewIRI("http://d/e")
	for _, c := range []struct {
		tp          rdf.Triple
		term, shape string
	}{
		{rdf.Triple{S: x, P: p, O: y}, "http://v/p", "??"},
		{rdf.Triple{S: x, P: p, O: e}, "http://v/p", "?g"},
		{rdf.Triple{S: e, P: p, O: y}, "http://v/p", "g?"},
		{rdf.Triple{S: x, P: rdf.NewIRI(rdf.RDFType), O: class}, "http://v/C", "??"},
		{rdf.Triple{S: e, P: rdf.NewIRI(rdf.RDFType), O: class}, "http://v/C", "g?"},
		{rdf.Triple{S: x, P: rdf.NewIRI(rdf.RDFType), O: y}, rdf.RDFType, "??"},
		{rdf.Triple{S: x, P: y, O: e}, "", "?g"},
	} {
		if term, shape := PatternStatKey(c.tp); term != c.term || shape != c.shape {
			t.Errorf("PatternStatKey(%v) = (%q, %q), want (%q, %q)", c.tp, term, shape, c.term, c.shape)
		}
	}
}

const testDS = "http://data.example/void#ds1"

// TestCardStoreEWMA pins the smoothing: the first observation seeds the
// cell, repeated observations converge toward the observed value, and a
// single outlier cannot dominate.
func TestCardStoreEWMA(t *testing.T) {
	c := NewCardStore(CardStoreOptions{Adaptive: true})
	c.Observe(testDS, "p", "??", 10, 100, c.Epoch())
	card, n, ok := c.Lookup(testDS, "p", "??")
	if !ok || n != 1 || card != 100 {
		t.Fatalf("after seed: card=%v obs=%d ok=%v, want 100/1/true", card, n, ok)
	}
	// EWMA with alpha 0.3: 0.7*100 + 0.3*200 = 130.
	c.Observe(testDS, "p", "??", 10, 200, c.Epoch())
	card, n, _ = c.Lookup(testDS, "p", "??")
	if n != 2 || math.Abs(card-130) > 1e-9 {
		t.Fatalf("after second obs: card=%v obs=%d, want 130/2", card, n)
	}
	// Converges: after many observations of 200 the EWMA approaches 200.
	for i := 0; i < 40; i++ {
		c.Observe(testDS, "p", "??", 10, 200, c.Epoch())
	}
	card, _, _ = c.Lookup(testDS, "p", "??")
	if math.Abs(card-200) > 1 {
		t.Fatalf("EWMA did not converge: card=%v, want ~200", card)
	}
	// Zero actual updates toward 1, not 0 (and never divides by zero).
	c2 := NewCardStore(CardStoreOptions{})
	c2.Observe(testDS, "q", "g?", 5, 0, c2.Epoch())
	card, _, ok = c2.Lookup(testDS, "q", "g?")
	if !ok || card != 1 {
		t.Fatalf("zero actual: card=%v ok=%v, want 1/true", card, ok)
	}
}

// TestCardStoreCorrect pins the correction contract: disabled stores and
// unobserved cells return the estimate unchanged; observed cells return
// the EWMA clamped to [est/100, est*100].
func TestCardStoreCorrect(t *testing.T) {
	passive := NewCardStore(CardStoreOptions{})
	passive.Observe(testDS, "p", "??", 1000, 10, passive.Epoch())
	if got := passive.Correct(testDS, "p", "??", 1000); got != 1000 {
		t.Fatalf("non-adaptive Correct = %d, want estimate unchanged (1000)", got)
	}

	c := NewCardStore(CardStoreOptions{Adaptive: true})
	if got := c.Correct(testDS, "p", "??", 1000); got != 1000 {
		t.Fatalf("unobserved Correct = %d, want 1000", got)
	}
	c.Observe(testDS, "p", "??", 1000, 10, c.Epoch())
	if got := c.Correct(testDS, "p", "??", 1000); got != 10 {
		t.Fatalf("Correct = %d, want observed 10", got)
	}
	// The cap bounds how far an observation can drag an estimate: a cell
	// observed at 2 corrects a 1,000,000 estimate only down to est/100.
	c.Observe(testDS, "tiny", "??", 1_000_000, 2, c.Epoch())
	if got := c.Correct(testDS, "tiny", "??", 1_000_000); got != 10_000 {
		t.Fatalf("capped Correct = %d, want 10000 (est/100)", got)
	}
	// And upward: observed 500 against estimate 1 corrects to est*100.
	c.Observe(testDS, "big", "??", 1, 500, c.Epoch())
	if got := c.Correct(testDS, "big", "??", 1); got != 100 {
		t.Fatalf("capped Correct up = %d, want 100 (est*100)", got)
	}
	// Nil store is a no-op.
	var nilStore *CardStore
	if got := nilStore.Correct(testDS, "p", "??", 7); got != 7 {
		t.Fatalf("nil Correct = %d, want 7", got)
	}
	nilStore.Observe(testDS, "p", "??", 1, 1, nilStore.Epoch())
	nilStore.Invalidate(testDS)
	nilStore.Flush()
	nilStore.Close()
}

// TestCardStoreInvalidate pins the KB-subscription hooks: Invalidate
// drops one dataset's cells, Flush drops everything.
func TestCardStoreInvalidate(t *testing.T) {
	c := NewCardStore(CardStoreOptions{Adaptive: true})
	other := "http://data.example/void#ds2"
	c.Observe(testDS, "p", "??", 10, 100, c.Epoch())
	c.Observe(testDS, "q", "g?", 10, 100, c.Epoch())
	c.Observe(other, "p", "??", 10, 100, c.Epoch())
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	c.Invalidate(testDS)
	if c.Len() != 1 {
		t.Fatalf("after Invalidate Len = %d, want 1", c.Len())
	}
	if _, _, ok := c.Lookup(testDS, "p", "??"); ok {
		t.Fatal("invalidated cell still present")
	}
	if _, _, ok := c.Lookup(other, "p", "??"); !ok {
		t.Fatal("unrelated dataset's cell dropped")
	}
	c.Flush()
	if c.Len() != 0 {
		t.Fatalf("after Flush Len = %d, want 0", c.Len())
	}
}

// TestCardStoreLRU pins the capacity bound: the store never exceeds its
// capacity and evicts least-recently-used cells first, an Observe
// counting as a use.
func TestCardStoreLRU(t *testing.T) {
	c := NewCardStore(CardStoreOptions{})
	c.Observe(testDS, "a", "??", 1, 1, c.Epoch())
	c.Observe(testDS, "b", "??", 1, 1, c.Epoch())
	for i := 2; i < cardCapacity; i++ {
		c.Observe(testDS, strconv.Itoa(i), "??", 1, 1, c.Epoch())
	}
	c.Observe(testDS, "a", "??", 1, 1, c.Epoch()) // touch a: b is now oldest
	c.Observe(testDS, "d", "??", 1, 1, c.Epoch()) // evicts b
	if c.Len() != cardCapacity {
		t.Fatalf("Len = %d, want %d", c.Len(), cardCapacity)
	}
	if _, _, ok := c.Lookup(testDS, "b", "??"); ok {
		t.Fatal("LRU did not evict the least recently used cell")
	}
	for _, term := range []string{"a", "2", "d"} {
		if _, _, ok := c.Lookup(testDS, term, "??"); !ok {
			t.Fatalf("cell %q evicted unexpectedly", term)
		}
	}
}

// TestCardStorePersistence round-trips the JSONL file: Close writes it,
// a new store loads it, and recency order survives so a reload under
// pressure evicts the same cells the original would have.
func TestCardStorePersistence(t *testing.T) {
	dir := t.TempDir()
	c := NewCardStore(CardStoreOptions{Dir: dir, Adaptive: true})
	c.Observe(testDS, "old", "??", 10, 50, c.Epoch())
	c.Observe(testDS, "new", "g?", 10, 70, c.Epoch())
	c.Observe(testDS, "old", "??", 10, 50, c.Epoch()) // "old" most recent
	c.Close()

	data, err := os.ReadFile(filepath.Join(dir, "cards.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(strings.TrimSpace(string(data)), "\n") + 1; lines != 2 {
		t.Fatalf("persisted %d lines, want 2:\n%s", lines, data)
	}

	re := NewCardStore(CardStoreOptions{Dir: dir, Adaptive: true})
	if re.Len() != 2 {
		t.Fatalf("reloaded Len = %d, want 2", re.Len())
	}
	// Recency survives: the reload holds the cells least recently used
	// first, as the original last used them, so a reload under pressure
	// evicts what the original would have.
	var order []string
	for k := range re.cells.All() {
		order = append(order, k.Term)
	}
	if !slices.Equal(order, []string{"new", "old"}) {
		t.Fatalf("reloaded order = %v, want [new old]", order)
	}
	card, n, ok := re.Lookup(testDS, "old", "??")
	if !ok || n != 2 || card != 50 {
		t.Fatalf("reloaded cell: card=%v obs=%d ok=%v, want 50/2/true", card, n, ok)
	}
	if got := re.Correct(testDS, "new", "g?", 1000); got != 70 {
		t.Fatalf("Correct from reloaded store = %d, want 70", got)
	}

	// Corrupt lines are skipped, not fatal.
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "cards.jsonl"),
		[]byte("not json\n{\"dataset\":\"\"}\n{\"dataset\":\"d\",\"shape\":\"??\",\"card\":3,\"obs\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded := NewCardStore(CardStoreOptions{Dir: bad})
	if loaded.Len() != 1 {
		t.Fatalf("corrupt-file load Len = %d, want 1", loaded.Len())
	}
}

// TestCardStoreQErrorHistogram pins the calibration export: every
// Observe with a positive estimate lands a sample in the per-dataset
// sparqlrw_estimate_qerror histogram, even when corrections are off.
func TestCardStoreQErrorHistogram(t *testing.T) {
	r := NewRegistry()
	c := NewCardStore(CardStoreOptions{Registry: r})
	c.Observe(testDS, "p", "??", 1000, 100, c.Epoch()) // q-error 10
	c.Observe(testDS, "p", "??", 100, 100, c.Epoch())  // q-error 1
	c.Observe(testDS, "p", "??", 0, 50, c.Epoch())     // no estimate: calibration skipped

	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `sparqlrw_estimate_qerror_count{dataset="`+testDS+`"} 2`) {
		t.Fatalf("q-error histogram missing or wrong count:\n%s", out)
	}
	if !strings.Contains(out, `sparqlrw_estimate_qerror_sum{dataset="`+testDS+`"} 11`) {
		t.Fatalf("q-error histogram sum wrong:\n%s", out)
	}
}
