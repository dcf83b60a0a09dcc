package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// OTLPOptions tune an OTLPExporter. Only Endpoint is required; the zero
// value of every other field selects a default.
type OTLPOptions struct {
	// Endpoint is the collector's trace-ingest URL, e.g.
	// http://localhost:4318/v1/traces.
	Endpoint string
	// Service is the service.name resource attribute (default
	// "sparqlrw-mediator").
	Service string
	// SampleRatio is the head-sampling probability in [0,1] applied to
	// locally rooted traces (default 1 = export everything). Traces that
	// continue a remote parent inherit the caller's sampled flag instead:
	// head sampling is decided once, at the edge of the distributed trace.
	SampleRatio float64
	// QueueSize bounds the number of finished traces waiting to be
	// batched (default 256). Enqueue never blocks; overflow drops.
	QueueSize int
	// BatchSize is how many traces one export request carries at most
	// (default 32).
	BatchSize int
	// FlushInterval bounds how long a non-empty batch waits before being
	// sent even when under BatchSize (default 3s).
	FlushInterval time.Duration
	// MaxRetries is how many times a failed export is retried with
	// exponential backoff before the batch is dropped (default 3).
	MaxRetries int
	// RetryBackoff is the first retry's delay; it doubles per attempt
	// (default 250ms).
	RetryBackoff time.Duration
	// Client performs the HTTP requests (default: a private client with
	// a 10s timeout).
	Client *http.Client
	// Logger receives export-failure diagnostics (default slog.Default).
	Logger *slog.Logger
	// Registry, when set, receives the exporter's own counters
	// (sparqlrw_otlp_exported_spans_total, ..._export_failures_total,
	// ..._dropped_traces_total).
	Registry *Registry
}

// OTLPExporter ships finished traces to an OpenTelemetry collector over
// OTLP/HTTP with JSON encoding (the protobuf-JSON mapping of
// ExportTraceServiceRequest), with batching, a bounded queue, retry
// with exponential backoff, and deterministic head sampling — all on
// the standard library alone. Enqueue is non-blocking and safe for
// concurrent use; a single background goroutine batches and posts.
type OTLPExporter struct {
	opts      OTLPOptions
	threshold uint64 // sample iff the trace id's low 64 bits < threshold
	queue     chan *Trace
	stop      chan struct{}
	done      sync.WaitGroup

	closeOnce sync.Once

	exported *Counter // spans successfully exported
	failures *Counter // export requests that exhausted retries
	dropped  *Counter // traces dropped (queue full or unsampled batches lost)
}

// NewOTLPExporter starts the export loop. Callers must Close the
// exporter to flush the final batch and stop the goroutine.
func NewOTLPExporter(opts OTLPOptions) *OTLPExporter {
	if opts.Service == "" {
		opts.Service = "sparqlrw-mediator"
	}
	if opts.SampleRatio <= 0 || opts.SampleRatio > 1 {
		opts.SampleRatio = 1
	}
	if opts.QueueSize <= 0 {
		opts.QueueSize = 256
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 32
	}
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = 3 * time.Second
	}
	if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	} else if opts.MaxRetries == 0 {
		opts.MaxRetries = 3
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 250 * time.Millisecond
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	e := &OTLPExporter{
		opts:      opts,
		threshold: sampleThreshold(opts.SampleRatio),
		queue:     make(chan *Trace, opts.QueueSize),
		stop:      make(chan struct{}),
	}
	r := opts.Registry
	if r == nil {
		r = NewRegistry() // private: counters still work, just unexposed
	}
	e.exported = r.Counter("sparqlrw_otlp_exported_spans_total",
		"Spans successfully exported to the OTLP collector.")
	e.failures = r.Counter("sparqlrw_otlp_export_failures_total",
		"OTLP export requests that failed after all retries.")
	e.dropped = r.Counter("sparqlrw_otlp_dropped_traces_total",
		"Finished traces dropped before export (queue overflow or failed batches).")
	e.done.Add(1)
	go e.loop()
	return e
}

func sampleThreshold(ratio float64) uint64 {
	if ratio >= 1 {
		return math.MaxUint64
	}
	return uint64(ratio * float64(math.MaxUint64))
}

// sampled decides whether to export t. A remote parent already decided
// (its sampled flag propagated in); a local root is decided here by
// hashing the trace id, so every mediator holding the same ratio keeps
// the same traces.
func (e *OTLPExporter) sampled(t *Trace) bool {
	if !t.Sampled() {
		return false
	}
	if t.ParentSpanID() != "" {
		return true
	}
	if e.threshold == math.MaxUint64 {
		return true
	}
	id := t.ID()
	low, err := strconv.ParseUint(id[len(id)-16:], 16, 64)
	if err != nil {
		return true
	}
	return low < e.threshold
}

// Enqueue offers a finished trace to the export queue. It never blocks:
// when the queue is full (or the trace is not sampled) the trace is
// dropped and Enqueue reports false. Safe to call with nil.
func (e *OTLPExporter) Enqueue(t *Trace) bool {
	if e == nil || t == nil {
		return false
	}
	if !e.sampled(t) {
		return false
	}
	select {
	case e.queue <- t:
		return true
	default:
		e.dropped.Inc()
		return false
	}
}

// Close flushes pending traces and stops the background goroutine.
// Idempotent; Enqueue calls racing Close may be dropped.
func (e *OTLPExporter) Close() {
	if e == nil {
		return
	}
	e.closeOnce.Do(func() { close(e.stop) })
	e.done.Wait()
}

func (e *OTLPExporter) loop() {
	defer e.done.Done()
	ticker := time.NewTicker(e.opts.FlushInterval)
	defer ticker.Stop()
	var batch []*Trace
	flush := func() {
		if len(batch) > 0 {
			e.export(batch)
			batch = batch[:0]
		}
	}
	for {
		select {
		case t := <-e.queue:
			batch = append(batch, t)
			if len(batch) >= e.opts.BatchSize {
				flush()
			}
		case <-ticker.C:
			flush()
		case <-e.stop:
			// Drain whatever Enqueue already committed, then flush once.
			for {
				select {
				case t := <-e.queue:
					batch = append(batch, t)
					if len(batch) >= e.opts.BatchSize {
						flush()
					}
				default:
					flush()
					return
				}
			}
		}
	}
}

// export posts one batch, retrying transient failures with exponential
// backoff. Exhausted batches are dropped — the exporter must never
// apply backpressure to the query path.
func (e *OTLPExporter) export(batch []*Trace) {
	body, spans := e.encode(batch)
	var lastErr error
	backoff := e.opts.RetryBackoff
	for attempt := 0; attempt <= e.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(backoff):
			case <-e.stop:
				// Shutting down: one last immediate try below.
			}
			backoff *= 2
		}
		req, err := http.NewRequest(http.MethodPost, e.opts.Endpoint, bytes.NewReader(body))
		if err != nil {
			lastErr = err
			break
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := e.opts.Client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code >= 200 && code < 300 {
			e.exported.Add(float64(spans))
			return
		}
		lastErr = fmt.Errorf("collector returned %d", code)
		if code >= 400 && code < 500 && code != http.StatusTooManyRequests {
			break // permanent: retrying an invalid payload cannot help
		}
	}
	e.failures.Inc()
	e.dropped.Add(float64(len(batch)))
	e.opts.Logger.Warn("otlp export failed, dropping batch",
		"traces", len(batch), "spans", spans, "err", lastErr)
}

// OTLP span kinds (trace.proto SpanKind).
const (
	otlpKindInternal = 1
	otlpKindServer   = 2
	otlpKindClient   = 3
)

type otlpKV struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}

type otlpValue struct {
	StringValue *string  `json:"stringValue,omitempty"`
	BoolValue   *bool    `json:"boolValue,omitempty"`
	IntValue    *string  `json:"intValue,omitempty"` // proto3 JSON: int64 as string
	DoubleValue *float64 `json:"doubleValue,omitempty"`
}

type otlpSpan struct {
	TraceID           string   `json:"traceId"`
	SpanID            string   `json:"spanId"`
	ParentSpanID      string   `json:"parentSpanId,omitempty"`
	TraceState        string   `json:"traceState,omitempty"`
	Name              string   `json:"name"`
	Kind              int      `json:"kind"`
	StartTimeUnixNano string   `json:"startTimeUnixNano"`
	EndTimeUnixNano   string   `json:"endTimeUnixNano"`
	Attributes        []otlpKV `json:"attributes,omitempty"`
}

type otlpExportRequest struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpResource struct {
	Attributes []otlpKV `json:"attributes"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpScope struct {
	Name string `json:"name"`
}

// encode flattens the batch's span trees into one
// ExportTraceServiceRequest in its protobuf-JSON mapping.
func (e *OTLPExporter) encode(batch []*Trace) (body []byte, spans int) {
	var flat []otlpSpan
	for _, t := range batch {
		flat = appendOTLPSpans(flat, t, t.Root(), t.parent)
	}
	spans = len(flat)
	req := otlpExportRequest{ResourceSpans: []otlpResourceSpans{{
		Resource: otlpResource{Attributes: []otlpKV{
			{Key: "service.name", Value: otlpString(e.opts.Service)},
		}},
		ScopeSpans: []otlpScopeSpans{{
			Scope: otlpScope{Name: "sparqlrw/internal/obs"},
			Spans: flat,
		}},
	}}}
	body, err := json.Marshal(req)
	if err != nil { // only a NaN or infinite float attribute fails to marshal
		body = []byte(`{"resourceSpans":[]}`)
	}
	return body, spans
}

func appendOTLPSpans(dst []otlpSpan, t *Trace, s *Span, parentID string) []otlpSpan {
	root := s == t.Root()
	kind := otlpKindInternal
	switch {
	case root:
		kind = otlpKindServer
	case s.name == "attempt":
		kind = otlpKindClient
	}
	id := hexUint64(s.id)
	out := otlpSpan{
		TraceID:           t.id,
		SpanID:            id,
		ParentSpanID:      parentID,
		Name:              s.name,
		Kind:              kind,
		StartTimeUnixNano: strconv.FormatInt(s.start.UnixNano(), 10),
	}
	if root {
		out.TraceState = t.state
	}
	s.mu.Lock()
	end := s.end
	for _, a := range s.attrs {
		out.Attributes = append(out.Attributes, otlpKV{Key: a.key, Value: a.otlpValue()})
	}
	c, last := s.first, s.last
	s.mu.Unlock()
	if end.IsZero() {
		end = time.Now()
	}
	out.EndTimeUnixNano = strconv.FormatInt(end.UnixNano(), 10)
	dst = append(dst, out)
	for ; c != nil; c = c.next {
		dst = appendOTLPSpans(dst, t, c, id)
		if c == last {
			break
		}
	}
	return dst
}

func otlpString(s string) otlpValue { return otlpValue{StringValue: &s} }

// otlpValue maps the attribute onto its proto3 JSON AnyValue.
func (a attr) otlpValue() otlpValue {
	switch a.kind {
	case kindInt:
		s := strconv.FormatInt(int64(a.num), 10)
		return otlpValue{IntValue: &s}
	case kindFloat:
		f := math.Float64frombits(a.num)
		return otlpValue{DoubleValue: &f}
	case kindBool:
		b := a.num != 0
		return otlpValue{BoolValue: &b}
	}
	return otlpString(a.str)
}
