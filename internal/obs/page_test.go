package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// ringWith records one finished trace per name, oldest first.
func ringWith(capacity int, names ...string) *TraceRing {
	r := NewTraceRing(capacity)
	for _, name := range names {
		_, t := NewTrace(context.Background(), name)
		t.Finish()
		r.Add(t)
	}
	return r
}

// checkPages drives one of the trace surfaces, holding q0..q4 recorded
// oldest first, through the one paging rule they share: newest first,
// offset skips from the newest end, total reports everything stored,
// pages tile without overlap, limit <= 0 returns everything past the
// offset and a negative offset is 0.
func checkPages(t *testing.T, page func(offset, limit int) ([]string, int)) {
	t.Helper()
	for _, c := range []struct {
		offset, limit int
		want          []string
	}{
		{0, 2, []string{"q4", "q3"}},
		{2, 2, []string{"q2", "q1"}},
		{4, 2, []string{"q0"}}, // a short tail page
		{9, 2, nil},            // past the end
		{4, 10, []string{"q0"}},
		{1, 0, []string{"q3", "q2", "q1", "q0"}},
		{0, -1, []string{"q4", "q3", "q2", "q1", "q0"}},
		{-3, 1, []string{"q4"}},
	} {
		got, total := page(c.offset, c.limit)
		if total != 5 || !slices.Equal(got, c.want) {
			t.Errorf("Page(%d, %d) = %v of %d, want %v of 5", c.offset, c.limit, got, total, c.want)
		}
	}
}

// TestTraceRingPage pins the ring's pagination, before and after it
// wraps around.
func TestTraceRingPage(t *testing.T) {
	names := func(r *TraceRing) func(offset, limit int) ([]string, int) {
		return func(offset, limit int) ([]string, int) {
			traces, total := r.Page(offset, limit)
			var out []string
			for _, tr := range traces {
				out = append(out, tr.Root().name)
			}
			return out, total
		}
	}
	checkPages(t, names(ringWith(8, "q0", "q1", "q2", "q3", "q4")))
	// After wrap-around the ring still pages newest-first over what it kept.
	checkPages(t, names(ringWith(5, "old0", "old1", "q0", "q1", "q2", "q3", "q4")))
}

// TestFlightRecorderPage pins the recorder's pagination across segment
// files: offsets count records newest-first over every segment, and
// total counts the whole on-disk history.
func TestFlightRecorderPage(t *testing.T) {
	dir := t.TempDir()
	// A 64 KiB budget rotates segments at 8 KiB: two 3 KiB records each.
	fr, err := NewFlightRecorder(dir, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	pad := strings.Repeat("x", 3<<10)
	for i := 0; i < 5; i++ {
		doc := TraceJSON{ID: fmt.Sprintf("q%d", i), Root: SpanJSON{Name: "query", Attrs: map[string]any{"query": pad}}}
		if err := fr.Record(doc); err != nil {
			t.Fatal(err)
		}
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "audit-*.jsonl")); len(segs) < 3 {
		t.Fatalf("5 records in %d segments, want them spread over 3", len(segs))
	}
	checkPages(t, func(offset, limit int) ([]string, int) {
		recs, total := fr.Page(offset, limit)
		var out []string
		for _, raw := range recs {
			var doc TraceJSON
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			out = append(out, doc.ID)
		}
		return out, total
	})
}
