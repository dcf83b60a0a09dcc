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

	_, tr := NewTrace(context.Background(), "query")
	tr.Finish()
	view := tr.View()
	rec := AuditRecord{
		Time:       time.Now(),
		TraceID:    tr.ID(),
		Form:       "select",
		Query:      "SELECT * WHERE { ?s ?p ?o }",
		DurationMS: 1250.5,
		Slow:       true,
		Explain:    map[string]any{"fragments": 2},
		Trace:      &view,
	}
	if err := r.Record(rec); err != nil {
		t.Fatal(err)
	}

	got, total := r.Page(0, 0)
	if len(got) != 1 || total != 1 {
		t.Fatalf("Page = %d records of %d, want 1 of 1", len(got), total)
	}
	var back AuditRecord
	if err := json.Unmarshal(got[0], &back); err != nil {
		t.Fatalf("recorded line is not valid JSON: %v", err)
	}
	if back.TraceID != tr.ID() || back.Query != rec.Query || !back.Slow || back.Trace == nil {
		t.Errorf("round-trip = %+v", back)
	}
	if back.Trace.ID != tr.ID() {
		t.Errorf("embedded trace id = %q", back.Trace.ID)
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
		if err := r.Record(AuditRecord{
			TraceID: fmt.Sprintf("%032d", i), Query: pad, Time: time.Now(),
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
	var first AuditRecord
	if err := json.Unmarshal(got[0], &first); err != nil {
		t.Fatal(err)
	}
	if first.TraceID != fmt.Sprintf("%032d", 199) {
		t.Errorf("Page[0].TraceID = %q, want the newest record", first.TraceID)
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
	if err := r1.Record(AuditRecord{TraceID: "aa", Query: "q1", Time: time.Now()}); err != nil {
		t.Fatal(err)
	}
	r1.Close()

	r2, err := NewFlightRecorder(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if err := r2.Record(AuditRecord{TraceID: "bb", Query: "q2", Time: time.Now()}); err != nil {
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
	if err := nilRec.Record(AuditRecord{}); err != nil {
		t.Error("nil recorder Record returned an error")
	}
	if got, total := nilRec.Page(0, 0); got != nil || total != 0 {
		t.Error("nil recorder Page lists records")
	}
	nilRec.Close()
}
