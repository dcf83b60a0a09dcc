package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFlightRecorderRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, err := NewFlightRecorder(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const query = "SELECT * WHERE { ?s ?p ?o }"
	_, tr := NewTrace(context.Background(), "query")
	tr.Root().SetString("form", "select")
	tr.Root().SetString("query", query)
	tr.Root().SetBool("slow", true)
	tr.Finish()
	doc := tr.View()
	doc.Plan = map[string]any{"fragments": 2}
	if err := r.Record(doc); err != nil {
		t.Fatal(err)
	}

	got, total := r.Page(0, 0)
	if len(got) != 1 || total != 1 {
		t.Fatalf("Page = %d records of %d, want 1 of 1", len(got), total)
	}
	var back TraceJSON
	if err := json.Unmarshal(got[0], &back); err != nil {
		t.Fatalf("recorded line is not valid JSON: %v", err)
	}
	if back.ID != tr.ID() || back.Root.Attrs["query"] != query || back.Root.Attrs["form"] != "select" ||
		back.Root.Attrs["slow"] != true {
		t.Errorf("round-trip = %+v", back)
	}
	if plan, _ := back.Plan.(map[string]any); plan["fragments"] != float64(2) {
		t.Errorf("recorded plan = %v", back.Plan)
	}

	if _, ok := r.Find(tr.ID()); !ok {
		t.Error("Find did not locate the record by trace id")
	}
	if _, ok := r.Find("ffffffffffffffffffffffffffffffff"); ok {
		t.Error("Find located a nonexistent trace id")
	}
}

func TestFlightRecorderRotationAndBudget(t *testing.T) {
	dir := t.TempDir()
	// Tiny budget: segment size clamps to 4 KiB, budget 8 KiB → at most
	// ~3 segments ever on disk (active + survivors within budget).
	r, err := NewFlightRecorder(dir, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pad := strings.Repeat("x", 512)
	for i := 0; i < 200; i++ {
		if err := r.Record(TraceJSON{
			ID: fmt.Sprintf("%032d", i), Root: SpanJSON{Name: "query", Attrs: map[string]any{"query": pad}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	var total int64
	files, _ := os.ReadDir(dir)
	for _, f := range files {
		info, err := f.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	// The active segment may exceed the budget by one segment's worth.
	if limit := int64(8<<10) + 5<<10; total > limit {
		t.Errorf("audit dir holds %d bytes, want <= %d", total, limit)
	}
	if len(files) < 2 {
		t.Errorf("no rotation happened: %d files", len(files))
	}

	// Newest first: the latest record leads the listing, the oldest ones
	// were evicted with their segments.
	got, _ := r.Page(0, 0)
	if len(got) == 0 {
		t.Fatal("Page returned nothing after 200 records")
	}
	var first TraceJSON
	if err := json.Unmarshal(got[0], &first); err != nil {
		t.Fatal(err)
	}
	if first.ID != fmt.Sprintf("%032d", 199) {
		t.Errorf("Page[0].ID = %q, want the newest record", first.ID)
	}
	if _, ok := r.Find(fmt.Sprintf("%032d", 0)); ok {
		t.Error("oldest record survived eviction despite the byte budget")
	}

	if got, _ := r.Page(0, 3); len(got) != 3 {
		t.Errorf("Page(0, 3) = %d records", len(got))
	}
}

func TestFlightRecorderResumesSequence(t *testing.T) {
	dir := t.TempDir()
	r1, err := NewFlightRecorder(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Record(TraceJSON{ID: "aa", Start: time.Now()}); err != nil {
		t.Fatal(err)
	}
	r1.Close()

	r2, err := NewFlightRecorder(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if err := r2.Record(TraceJSON{ID: "bb", Start: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if got, total := r2.Page(0, 0); len(got) != 2 || total != 2 {
		t.Fatalf("after reopen Page = %d records of %d, want 2 of 2", len(got), total)
	}
	// A reopened recorder starts a new segment after the old one.
	files, _ := filepath.Glob(filepath.Join(dir, "audit-*.jsonl"))
	if len(files) != 2 {
		t.Errorf("reopen reused the old segment: %v", files)
	}

	// Nil-safety.
	var nilRec *FlightRecorder
	if err := nilRec.Record(TraceJSON{}); err != nil {
		t.Error("nil recorder Record returned an error")
	}
	if got, total := nilRec.Page(0, 0); got != nil || total != 0 {
		t.Error("nil recorder Page lists records")
	}
	nilRec.Close()
}

// TestFlightRecorderReadsOversizedRecord: a record longer than any line
// buffer — a 9 MiB query text — is listed, counted and found by id like
// its neighbours.
func TestFlightRecorderReadsOversizedRecord(t *testing.T) {
	r, err := NewFlightRecorder(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	big := strings.Repeat("x", 9<<20)
	for i, q := range []string{"small", big, "small"} {
		doc := TraceJSON{ID: fmt.Sprintf("%032d", i), Root: SpanJSON{Name: "query", Attrs: map[string]any{"query": q}}}
		if err := r.Record(doc); err != nil {
			t.Fatal(err)
		}
	}
	if got, total := r.Page(0, 0); len(got) != 3 || total != 3 {
		t.Fatalf("Page = %d records of %d, want 3 of 3", len(got), total)
	}
	line, ok := r.Find(fmt.Sprintf("%032d", 1))
	if !ok {
		t.Fatal("the oversized record is not found by id")
	}
	var doc TraceJSON
	if err := json.Unmarshal(line, &doc); err != nil || doc.Root.Attrs["query"] != big {
		t.Fatalf("the oversized record does not read back whole: %v", err)
	}
}
