package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// collector is a minimal OTLP/HTTP JSON test collector: it decodes
// every request into the export shape and remembers the spans.
type collector struct {
	mu       sync.Mutex
	requests int
	spans    []otlpSpan
}

func newCollector(t *testing.T, failFirst int) (*collector, *httptest.Server) {
	c := &collector{}
	var failures int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		c.mu.Lock()
		defer c.mu.Unlock()
		c.requests++
		if failures < failFirst {
			failures++
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("collector got Content-Type %q", ct)
		}
		var req otlpExportRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Errorf("collector got invalid OTLP JSON: %v\n%s", err, body)
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		for _, rs := range req.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				c.spans = append(c.spans, ss.Spans...)
			}
		}
		w.WriteHeader(http.StatusOK)
	}))
	return c, srv
}

func (c *collector) snapshot() []otlpSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]otlpSpan(nil), c.spans...)
}

func finishedTrace(name string) *Trace {
	ctx, tr := NewTrace(context.Background(), name)
	sctx, sub := StartSpan(ctx, "subquery")
	sub.SetString("endpoint", "http://a.example/sparql")
	_, att := StartSpan(sctx, "attempt")
	att.SetInt("rows", 7)
	att.SetFloat("latencyMs", 1.25)
	att.SetBool("ok", true)
	att.End()
	sub.End()
	tr.Finish()
	return tr
}

func TestOTLPExporterExportsSpanTree(t *testing.T) {
	c, srv := newCollector(t, 0)
	defer srv.Close()
	e := NewOTLPExporter(OTLPOptions{Endpoint: srv.URL, Service: "test-svc", BatchSize: 1})
	tr := finishedTrace("query")
	if !e.Enqueue(tr) {
		t.Fatal("Enqueue refused a sampled trace")
	}
	e.Close()

	spans := c.snapshot()
	if len(spans) != 3 {
		t.Fatalf("collector got %d spans, want 3 (query, subquery, attempt)", len(spans))
	}
	byName := map[string]otlpSpan{}
	for _, s := range spans {
		byName[s.Name] = s
		if s.TraceID != tr.ID() {
			t.Errorf("span %q traceId = %q, want %q", s.Name, s.TraceID, tr.ID())
		}
		if len(s.SpanID) != 16 {
			t.Errorf("span %q spanId = %q", s.Name, s.SpanID)
		}
		if s.StartTimeUnixNano == "" || s.EndTimeUnixNano == "" {
			t.Errorf("span %q missing timestamps: %+v", s.Name, s)
		}
	}
	root, sub, att := byName["query"], byName["subquery"], byName["attempt"]
	if root.ParentSpanID != "" || root.Kind != otlpKindServer {
		t.Errorf("root span = %+v", root)
	}
	if sub.ParentSpanID != root.SpanID {
		t.Errorf("subquery parent = %q, want root %q", sub.ParentSpanID, root.SpanID)
	}
	if att.ParentSpanID != sub.SpanID || att.Kind != otlpKindClient {
		t.Errorf("attempt span = %+v", att)
	}
	// Attribute typing follows the proto3 JSON mapping.
	vals := map[string]otlpValue{}
	for _, kv := range att.Attributes {
		vals[kv.Key] = kv.Value
	}
	if v := vals["rows"]; v.IntValue == nil || *v.IntValue != "7" {
		t.Errorf("rows attr = %+v, want intValue \"7\"", v)
	}
	if v := vals["latencyMs"]; v.DoubleValue == nil || *v.DoubleValue != 1.25 {
		t.Errorf("latencyMs attr = %+v", v)
	}
	if v := vals["ok"]; v.BoolValue == nil || !*v.BoolValue {
		t.Errorf("ok attr = %+v", v)
	}
}

func TestOTLPExporterRetries(t *testing.T) {
	c, srv := newCollector(t, 2) // two 503s, then accept
	defer srv.Close()
	e := NewOTLPExporter(OTLPOptions{
		Endpoint: srv.URL, BatchSize: 1,
		MaxRetries: 3, RetryBackoff: time.Millisecond,
	})
	e.Enqueue(finishedTrace("q"))
	e.Close()
	if got := c.snapshot(); len(got) == 0 {
		t.Fatal("export did not survive 2 transient failures")
	}
	if e.failures.Value() != 0 {
		t.Errorf("failures counter = %v after eventual success", e.failures.Value())
	}
}

func TestOTLPExporterDropsAfterRetriesExhausted(t *testing.T) {
	c, srv := newCollector(t, 100)
	defer srv.Close()
	e := NewOTLPExporter(OTLPOptions{
		Endpoint: srv.URL, BatchSize: 1,
		MaxRetries: 1, RetryBackoff: time.Millisecond,
	})
	e.Enqueue(finishedTrace("q"))
	e.Close()
	if len(c.snapshot()) != 0 {
		t.Fatal("collector accepted spans despite permanent failure")
	}
	if e.failures.Value() != 1 || e.dropped.Value() != 1 {
		t.Errorf("failures=%v dropped=%v, want 1/1", e.failures.Value(), e.dropped.Value())
	}
}

func TestOTLPExporterSampling(t *testing.T) {
	_, srv := newCollector(t, 0)
	defer srv.Close()

	// An unsampled remote parent suppresses export entirely.
	e := NewOTLPExporter(OTLPOptions{Endpoint: srv.URL, BatchSize: 1})
	_, unsampled := NewTrace(WithRemoteParent(context.Background(), TraceContext{
		TraceID: NewTraceID(), SpanID: hexUint64(newSpanID()), Sampled: false,
	}), "query")
	unsampled.Finish()
	if e.Enqueue(unsampled) {
		t.Error("Enqueue accepted an unsampled trace")
	}

	// A sampled remote parent bypasses the local ratio: the edge decided.
	e2 := NewOTLPExporter(OTLPOptions{Endpoint: srv.URL, SampleRatio: 0.000001, BatchSize: 1})
	_, remote := NewTrace(WithRemoteParent(context.Background(), TraceContext{
		TraceID: "ffffffffffffffffffffffffffffffff", SpanID: hexUint64(newSpanID()), Sampled: true,
	}), "query")
	remote.Finish()
	if !e2.Enqueue(remote) {
		t.Error("remotely-sampled trace rejected by local ratio")
	}

	// Local roots follow the deterministic trace-id hash: a tiny ratio
	// keeps almost nothing over many traces.
	kept := 0
	for i := 0; i < 200; i++ {
		_, tr := NewTrace(context.Background(), "q")
		tr.Finish()
		if e2.sampled(tr) {
			kept++
		}
	}
	if kept > 5 {
		t.Errorf("ratio 1e-6 kept %d/200 local traces", kept)
	}
	e.Close()
	e2.Close()
}

func TestOTLPExporterQueueOverflowNeverBlocks(t *testing.T) {
	// An unreachable endpoint with a tiny queue: Enqueue must return
	// promptly and report drops instead of blocking the query path.
	e := NewOTLPExporter(OTLPOptions{
		Endpoint: "http://127.0.0.1:0/v1/traces", QueueSize: 1, BatchSize: 100,
		FlushInterval: time.Hour, MaxRetries: 0, RetryBackoff: time.Millisecond,
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			e.Enqueue(finishedTrace("q"))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Enqueue blocked on a full queue")
	}
	e.Close()
	if e.dropped.Value() == 0 {
		t.Error("no drops recorded despite overflow")
	}
}
