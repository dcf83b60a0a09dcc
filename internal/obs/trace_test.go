package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	ctx, trace := NewTrace(context.Background(), "query")
	if len(trace.ID()) != 32 || !isLowerHex(trace.ID()) {
		t.Errorf("trace ID = %q, want 32 lowercase hex chars", trace.ID())
	}
	if trace.ParentSpanID() != "" {
		t.Errorf("local root trace has parent span %q", trace.ParentSpanID())
	}
	if !trace.Sampled() {
		t.Error("local root trace not sampled by default")
	}
	if len(trace.Root().SpanID()) != 16 || !isLowerHex(trace.Root().SpanID()) {
		t.Errorf("root span ID = %q, want 16 lowercase hex chars", trace.Root().SpanID())
	}
	if TraceFrom(ctx) != trace {
		t.Error("TraceFrom did not return the started trace")
	}

	_, plan := StartSpan(ctx, "plan")
	plan.SetInt("datasets", 3)
	plan.SetInt("datasets", 2) // replaces, not appends
	plan.End()

	subCtx, sub := StartSpan(ctx, "subquery")
	if sub.SpanID() == "" || sub.SpanID() == trace.Root().SpanID() || sub.SpanID() == plan.SpanID() {
		t.Errorf("span IDs not distinct: root=%s plan=%s sub=%s",
			trace.Root().SpanID(), plan.SpanID(), sub.SpanID())
	}
	sub.SetString("endpoint", "http://a.example/sparql")
	_, attempt := StartSpan(subCtx, "attempt")
	attempt.SetInt("n", 1)
	// attempt deliberately left open: Finish must close it.

	trace.Finish()
	end := trace.Duration()
	time.Sleep(2 * time.Millisecond)
	if trace.Duration() != end {
		t.Error("Duration changed after Finish")
	}
	trace.Finish() // idempotent

	view := trace.View()
	if view.ID != trace.ID() || view.Root.Name != "query" {
		t.Errorf("view root = %+v", view.Root)
	}
	if len(view.Root.Children) != 2 {
		t.Fatalf("root children = %d, want 2 (plan, subquery)", len(view.Root.Children))
	}
	planView := view.Root.Children[0]
	if planView.Name != "plan" || planView.Attrs["datasets"] != int64(2) {
		t.Errorf("plan span = %+v", planView)
	}
	subView := view.Root.Children[1]
	if len(subView.Children) != 1 || subView.Children[0].Name != "attempt" {
		t.Fatalf("subquery children = %+v", subView.Children)
	}
	// The open attempt span was closed at Finish time, inside the trace.
	if got := subView.Children[0].DurationMS; got > view.DurationMS {
		t.Errorf("attempt duration %vms exceeds trace duration %vms", got, view.DurationMS)
	}

	var decoded TraceJSON
	if err := json.Unmarshal(trace.JSON(), &decoded); err != nil {
		t.Fatalf("trace JSON does not round-trip: %v", err)
	}
	if decoded.Root.Children[1].Attrs["endpoint"] != "http://a.example/sparql" {
		t.Errorf("decoded subquery attrs = %+v", decoded.Root.Children[1].Attrs)
	}
}

func TestNoTraceIsNoOp(t *testing.T) {
	ctx := context.Background()
	if TraceFrom(ctx) != nil {
		t.Error("TraceFrom on bare context != nil")
	}
	ctx2, span := StartSpan(ctx, "plan")
	if span != nil {
		t.Fatal("StartSpan without a trace returned a span")
	}
	if ctx2 != ctx {
		t.Error("StartSpan without a trace changed the context")
	}
	// All nil-span and nil-trace methods must be safe no-ops.
	span.SetString("k", "v")
	span.End()
	if span.SpanID() != "" {
		t.Error("nil span SpanID != \"\"")
	}
	if tp := TraceparentFrom(ctx); tp != "" {
		t.Errorf("TraceparentFrom without a trace = %q", tp)
	}
	var trace *Trace
	trace.Finish()
	if trace.Duration() != 0 {
		t.Error("nil trace Duration != 0")
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		_, tr := NewTrace(context.Background(), "q")
		if seen[tr.ID()] {
			t.Fatalf("duplicate trace ID %q", tr.ID())
		}
		seen[tr.ID()] = true
	}
}

func TestTraceRingEviction(t *testing.T) {
	ring := NewTraceRing(3)
	var traces []*Trace
	for i := 0; i < 5; i++ {
		_, tr := NewTrace(context.Background(), fmt.Sprintf("q%d", i))
		tr.Finish()
		traces = append(traces, tr)
		ring.Add(tr)
	}
	if ring.Get(traces[0].ID()) != nil || ring.Get(traces[1].ID()) != nil {
		t.Error("evicted traces still retrievable")
	}
	for _, tr := range traces[2:] {
		if ring.Get(tr.ID()) != tr {
			t.Errorf("trace %s missing from ring", tr.ID())
		}
	}
	recent := ring.Recent(0)
	if len(recent) != 3 {
		t.Fatalf("Recent(0) = %d traces, want 3", len(recent))
	}
	// Newest first.
	if recent[0] != traces[4] || recent[2] != traces[2] {
		t.Errorf("Recent order = [%s %s %s], want newest first",
			recent[0].Root().name, recent[1].Root().name, recent[2].Root().name)
	}
	if got := ring.Recent(1); len(got) != 1 || got[0] != traces[4] {
		t.Errorf("Recent(1) = %v", got)
	}
	ring.Add(nil) // ignored
	if len(ring.Recent(0)) != 3 {
		t.Error("Add(nil) changed ring contents")
	}
}

func TestObserverDefaults(t *testing.T) {
	o := NewObserver(Options{})
	if o.Registry == nil || o.Ring == nil || o.Log == nil {
		t.Fatalf("NewObserver left nil fields: %+v", o)
	}
	if o.SlowQuery != time.Second {
		t.Errorf("default SlowQuery = %v, want 1s", o.SlowQuery)
	}
	shared := NewRegistry()
	o2 := NewObserver(Options{Registry: shared, SlowQuery: -1, TraceRingSize: 2})
	if o2.Registry != shared {
		t.Error("supplied registry not used")
	}
	if o2.SlowQuery >= 0 {
		t.Error("negative SlowQuery (disabled) was overridden")
	}
}

// TestOperatorTable pins the operator view of a trace document: spans
// without an op are looked through, their operator children standing in
// their place; siblings order by stage, then start; and the table reads
// the numbers alike from a view taken in process and from its JSON.
func TestOperatorTable(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "query")
	tr.Root().SetString("query", "SELECT ?s\nWHERE { ?s ?p ?o }")
	// The final stage's span opens first, as in the lazy pipeline.
	_, join := StartSpan(ctx, "join")
	st := Operator("bound-join")
	st.Stage, st.EstRows, st.ActualRows, st.QError, st.RowsOut = 1, 10, 40, 4, 40
	join.SetOperator(st)
	fctx, _ := StartSpan(ctx, "federate") // no op: looked through
	frag := Operator("fragment")
	frag.Stage, frag.EstRows, frag.ActualRows, frag.QError = 0, 5, 5, 1
	sctx, fragSpan := StartSpan(fctx, "fragment")
	fragSpan.SetOperator(frag)
	_, sub := StartSpan(sctx, "subquery")
	sub.SetString("op", "subquery")
	tr.Finish()

	v := tr.View()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var back TraceJSON
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for _, doc := range []TraceJSON{v, back} {
		ops := doc.Operators()
		if len(ops) != 2 || ops[0].Attrs["op"] != "fragment" || ops[1].Attrs["op"] != "bound-join" {
			t.Fatalf("operators = %+v, want fragment (stage 0) before bound-join (stage 1)", ops)
		}
		if kids := ops[0].Operators(); len(kids) != 1 || kids[0].Attrs["op"] != "subquery" {
			t.Fatalf("fragment's operators = %+v, want its subquery", kids)
		}
		text := doc.Text()
		for _, want := range []string{
			"EXPLAIN ANALYZE  trace=" + tr.ID(), "  | SELECT ?s\n  | WHERE { ?s ?p ?o }\n",
			"\nfragment ", "\n  subquery ", "\nbound-join ",
		} {
			if !strings.Contains(text, want) {
				t.Errorf("table lacks %q:\n%s", want, text)
			}
		}
		if fields := strings.Fields(text[strings.Index(text, "\nbound-join"):]); strings.Join(fields[1:6], " ") != "1 10 40 4.0 40" {
			t.Errorf("bound-join row = %v, want stage 1, est 10, actual 40, q-err 4.0, rows-out 40", fields[:6])
		}
		if strings.Contains(text, "federate") {
			t.Errorf("the op-less span has a row:\n%s", text)
		}
	}
}
