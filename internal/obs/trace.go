package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is one query's span tree: a root span plus the nested child
// spans each pipeline stage opens (rewrite, plan, per-endpoint
// sub-queries, retries). Traces travel via context.Context — every
// layer annotates the trace it finds there, and a context without one
// makes every annotation a no-op, so instrumentation costs nothing when
// tracing is off. All methods are safe for concurrent use: sub-query
// spans are opened and annotated from parallel fan-out workers.
//
// A trace is one allocation holding its root and its first seven child
// spans; a span past those costs one more. A span carries the context
// StartSpan hands out, so no context value is added, and its id is a
// number until an export formats it: opening and annotating a span
// boxes and formats nothing. A span keeps the context it was opened under alive for as
// long as its trace is retained, which the trace ring bounds to its
// last traces (128 by default).
type Trace struct {
	id      string
	parent  string // remote parent span id ("" when this trace is a local root)
	sampled bool
	state   string // inbound tracestate, propagated verbatim
	start   time.Time

	mu       sync.Mutex
	end      time.Time
	finished bool

	used  atomic.Int64 // spans of block handed out, the root's included
	block [8]Span      // the root, then the first child spans opened
}

// Span is one timed, annotated operation within a trace. Every method
// of a nil *Span is a no-op that allocates nothing.
type Span struct {
	trace *Trace
	id    uint64 // formatted as 16 hex characters on export
	name  string
	start time.Time
	ctx   spanCtx // what StartSpan hands out: the parent's context plus this span

	mu     sync.Mutex
	end    time.Time
	attrs  []attr // inline's prefix until the span outgrows it
	inline [6]attr
	// The children, oldest first, linked through next. They are only
	// ever appended, so every link up to the last child read under mu is
	// final: a walk from first to that child holds no lock and copies
	// nothing.
	first, last *Span
	next        *Span // the next sibling; written under the parent's mu
}

// spanCtx is a span's context: its parent context, answering ctxKey{}
// with the span itself.
type spanCtx struct {
	context.Context
	span *Span
}

func (c *spanCtx) Value(key any) any {
	if key == (ctxKey{}) {
		return c.span
	}
	return c.Context.Value(key)
}

type attrKind uint8

const (
	kindString attrKind = iota
	kindInt
	kindFloat
	kindBool
)

// attr is one typed span attribute: a string, or a number held in num
// (an int64, a float64's bits, or 0/1 for a bool).
type attr struct {
	key  string
	str  string
	num  uint64
	kind attrKind
}

// value is the attribute as the trace view reports it.
func (a attr) value() any {
	switch a.kind {
	case kindInt:
		return int64(a.num)
	case kindFloat:
		return math.Float64frombits(a.num)
	case kindBool:
		return a.num != 0
	}
	return a.str
}

func hexUint64(v uint64) string {
	var b [16]byte
	return string(appendHex(b[:0], v))
}

// appendHex appends v as 16 lowercase hex characters.
func appendHex(dst []byte, v uint64) []byte {
	const hex = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hex[v>>uint(shift)&0xf])
	}
	return dst
}

// NewTraceID returns a fresh W3C Trace Context trace id: 32 lowercase
// hex characters, never all-zero.
func NewTraceID() string {
	for {
		hi, lo := rand.Uint64(), rand.Uint64()
		if hi|lo != 0 {
			var b [32]byte
			return string(appendHex(appendHex(b[:0], hi), lo))
		}
	}
}

// newSpanID returns a fresh W3C Trace Context span id, never zero; it
// renders as 16 lowercase hex characters.
func newSpanID() uint64 {
	for {
		if v := rand.Uint64(); v != 0 {
			return v
		}
	}
}

type ctxKey struct{}

// NewTrace starts a trace whose root span has the given name and returns
// a context carrying it. Layers below retrieve it with TraceFrom or open
// child spans with StartSpan. When ctx carries a remote parent (set by
// WithRemoteParent from an inbound traceparent header) the trace adopts
// the caller's trace id, parent span id, sampled flag and tracestate, so
// the mediator's span tree stitches into the caller's distributed trace.
func NewTrace(ctx context.Context, name string) (context.Context, *Trace) {
	t := &Trace{sampled: true, start: time.Now()}
	if tc, ok := remoteParentFrom(ctx); ok {
		t.id = tc.TraceID
		t.parent = tc.SpanID
		t.sampled = tc.Sampled
		t.state = tc.State
	}
	if t.id == "" {
		t.id = NewTraceID()
	}
	t.used.Store(1)
	root := &t.block[0]
	root.open(ctx, t, name, t.start)
	return &root.ctx, t
}

// open fills in a fresh span opened under ctx.
func (s *Span) open(ctx context.Context, t *Trace, name string, start time.Time) {
	s.trace, s.id, s.name, s.start = t, newSpanID(), name, start
	s.ctx = spanCtx{ctx, s}
}

// TraceFrom returns the trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if s, ok := ctx.Value(ctxKey{}).(*Span); ok {
		return s.trace
	}
	return nil
}

// StartSpan opens a child span under the span carried by ctx and returns
// a context carrying the new span. When ctx carries no trace it returns
// ctx and a nil span — every method of a nil *Span is a no-op, so
// instrumentation sites need no conditionals.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, ok := ctx.Value(ctxKey{}).(*Span)
	if !ok || parent == nil {
		return ctx, nil
	}
	t := parent.trace
	var child *Span
	if i := t.used.Add(1) - 1; i < int64(len(t.block)) {
		child = &t.block[i]
	} else {
		child = new(Span)
	}
	child.open(ctx, t, name, time.Now())
	parent.mu.Lock()
	if parent.last == nil {
		parent.first = child
	} else {
		parent.last.next = child
	}
	parent.last = child
	parent.mu.Unlock()
	return &child.ctx, child
}

// ID returns the trace's identifier: a W3C Trace Context trace id
// (32 lowercase hex characters).
func (t *Trace) ID() string { return t.id }

// ParentSpanID returns the remote parent span id adopted from an inbound
// traceparent header, or "" when this trace is a local root.
func (t *Trace) ParentSpanID() string { return t.parent }

// Sampled reports whether the trace is marked for export: the caller's
// sampled flag when the trace continued a remote one, true otherwise.
// Local surfaces (trace ring, flight recorder) record regardless; only
// the OTLP exporter honours it.
func (t *Trace) Sampled() bool { return t.sampled }

// Start returns when the trace began.
func (t *Trace) Start() time.Time { return t.start }

// Root returns the root span.
func (t *Trace) Root() *Span { return &t.block[0] }

// Finish ends the trace (and its root span, and any still-open child
// spans). Idempotent: the first call fixes the end time.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	t.finished = true
	t.end = time.Now()
	end := t.end
	t.mu.Unlock()
	t.Root().endAt(end)
}

// Duration returns the trace's wall time: end-start once finished, the
// running duration otherwise.
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished {
		return t.end.Sub(t.start)
	}
	return time.Since(t.start)
}

// SpanID returns the span's identifier (16 hex characters), or "" on a
// nil span.
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return hexUint64(s.id)
}

// SetString sets one key on the span to a string, replacing an earlier
// value for the same key. No-op on a nil span.
func (s *Span) SetString(key, v string) {
	if s != nil {
		s.set(attr{key: key, str: v, kind: kindString})
	}
}

// SetInt sets one key on the span to an integer. No-op on a nil span.
func (s *Span) SetInt(key string, v int64) {
	if s != nil {
		s.set(attr{key: key, num: uint64(v), kind: kindInt})
	}
}

// SetFloat sets one key on the span to a float. No-op on a nil span.
func (s *Span) SetFloat(key string, v float64) {
	if s != nil {
		s.set(attr{key: key, num: math.Float64bits(v), kind: kindFloat})
	}
}

// SetBool sets one key on the span to a bool. No-op on a nil span.
func (s *Span) SetBool(key string, v bool) {
	if s != nil {
		var n uint64
		if v {
			n = 1
		}
		s.set(attr{key: key, num: n, kind: kindBool})
	}
}

func (s *Span) set(a attr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].key == a.key {
			s.attrs[i] = a
			return
		}
	}
	if s.attrs == nil {
		s.attrs = s.inline[:0]
	}
	s.attrs = append(s.attrs, a)
}

// OperatorStats are the typed runtime-profile attributes a pipeline
// stage records on its span: what the operator is, how many rows passed
// through it, and how its cardinality estimate compared to reality.
// Negative numeric fields mean "not recorded" and are omitted; zero is
// a real observation (an operator that produced nothing).
type OperatorStats struct {
	// Op names the operator kind: "source-selection", "decompose",
	// "fragment", "bound-join", "hash-join", "filter", "distinct-limit".
	Op string
	// Stage is the operator's position in the decomposition pipeline.
	Stage int64
	// RowsIn / RowsOut count solutions entering / leaving the operator.
	RowsIn, RowsOut int64
	// Solutions counts endpoint solutions fetched by the operator.
	Solutions int64
	// Bytes counts response bytes transferred by the operator.
	Bytes int64
	// EstRows / ActualRows are the planner's cardinality estimate and the
	// observed cardinality for the operator's output.
	EstRows, ActualRows int64
	// QError is max(est/actual, actual/est) when both are recorded.
	QError float64
	// FirstRowMS is the latency to the operator's first output row.
	FirstRowMS float64
}

// Operator returns stats for the named operator with every numeric
// field marked "not recorded"; callers fill in what they measured.
func Operator(op string) OperatorStats {
	return OperatorStats{
		Op: op, Stage: -1, RowsIn: -1, RowsOut: -1, Solutions: -1,
		Bytes: -1, EstRows: -1, ActualRows: -1, QError: -1, FirstRowMS: -1,
	}
}

// SetOperator records the operator profile on the span as flat
// well-known attribute keys ("op", "rowsIn", "estRows", …), so the
// operator table (TraceJSON.Text) — and any OTLP consumer — reads typed
// numbers instead of parsing ad-hoc strings. Fields left negative are
// skipped. No-op on a nil span.
func (s *Span) SetOperator(st OperatorStats) {
	if s == nil {
		return
	}
	s.SetString("op", st.Op)
	setInt := func(key string, v int64) {
		if v >= 0 {
			s.SetInt(key, v)
		}
	}
	setInt("stage", st.Stage)
	setInt("rowsIn", st.RowsIn)
	setInt("rowsOut", st.RowsOut)
	setInt("solutions", st.Solutions)
	setInt("bytes", st.Bytes)
	setInt("estRows", st.EstRows)
	setInt("actualRows", st.ActualRows)
	if st.QError >= 0 {
		s.SetFloat("qError", st.QError)
	}
	if st.FirstRowMS >= 0 {
		s.SetFloat("firstRowMs", st.FirstRowMS)
	}
}

// End closes the span. Idempotent; no-op on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.endAt(time.Now())
}

func (s *Span) endAt(t time.Time) {
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = t
	}
	c, last := s.first, s.last
	s.mu.Unlock()
	for ; c != nil; c = c.next {
		c.endAt(t)
		if c == last {
			break
		}
	}
}

// SpanJSON is the serialised shape of one span: offsets and durations in
// milliseconds relative to the trace start, attributes keyed by name
// (each a string, int64, float64 or bool), and nested children.
type SpanJSON struct {
	Name       string         `json:"name"`
	SpanID     string         `json:"spanId,omitempty"`
	StartMS    float64        `json:"startMs"`
	DurationMS float64        `json:"durationMs"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []SpanJSON     `json:"children,omitempty"`
}

// TraceJSON is the one document of a finished query: what GET
// /api/trace serves, the explain=trace trailer ships and the flight
// recorder writes. The root span's attributes carry the query text, its
// form, the result cache's decision (resultCache, with its reason), its
// error and, for a slow query, slow=true; operator spans carry
// what SetOperator records.
type TraceJSON struct {
	ID           string    `json:"id"`
	ParentSpanID string    `json:"parentSpanId,omitempty"`
	Start        time.Time `json:"start"`
	DurationMS   float64   `json:"durationMs"`
	Root         SpanJSON  `json:"root"`
	// Plan is the query's decomposition where it is at hand: in the
	// explain=trace trailer and on a recorded line. A trace in the ring
	// keeps none, so it never pins a view's rows.
	Plan any `json:"plan,omitempty"`
}

// View snapshots the trace into its serialisable shape. Call after
// Finish for stable durations; open spans report their running duration.
func (t *Trace) View() TraceJSON {
	return TraceJSON{
		ID:           t.id,
		ParentSpanID: t.parent,
		Start:        t.start,
		DurationMS:   ms(t.Duration()),
		Root:         t.Root().view(t.start),
	}
}

// JSON marshals the trace view (never fails for the attr types the
// pipeline records; a marshal error yields a JSON error object).
func (t *Trace) JSON() json.RawMessage {
	data, err := json.Marshal(t.View())
	if err != nil {
		data, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	return data
}

func (s *Span) view(traceStart time.Time) SpanJSON {
	out := SpanJSON{
		Name:    s.name,
		SpanID:  hexUint64(s.id),
		StartMS: ms(s.start.Sub(traceStart)),
	}
	s.mu.Lock()
	end := s.end
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.key] = a.value()
		}
	}
	c, last := s.first, s.last
	s.mu.Unlock()
	if end.IsZero() {
		end = time.Now()
	}
	out.DurationMS = ms(end.Sub(s.start))
	for ; c != nil; c = c.next {
		out.Children = append(out.Children, c.view(traceStart))
		if c == last {
			break
		}
	}
	return out
}

// Operators lists the trace's top operator spans: the spans with an "op"
// attribute, looking through those without one (their operator
// descendants stand in their place), ordered by stage, then start time —
// spans are appended in creation order, but the lazily evaluated pipeline
// opens the final stage's span before the fragments it consumes start.
func (v TraceJSON) Operators() []SpanJSON { return operators([]SpanJSON{v.Root}) }

// Operators lists the operator spans under s, as TraceJSON.Operators.
func (s SpanJSON) Operators() []SpanJSON { return operators(s.Children) }

func operators(spans []SpanJSON) []SpanJSON {
	var out []SpanJSON
	for _, s := range spans {
		if op, _ := s.Attrs["op"].(string); op != "" {
			out = append(out, s)
		} else {
			out = append(out, operators(s.Children)...)
		}
	}
	stage := func(s SpanJSON) float64 {
		if n, ok := attrNum(s.Attrs, "stage"); ok {
			return n
		}
		return -1
	}
	sort.SliceStable(out, func(i, j int) bool {
		if si, sj := stage(out[i]), stage(out[j]); si != sj {
			return si < sj
		}
		return out[i].StartMS < out[j].StartMS
	})
	return out
}

// attrNum reads a numeric attribute: the int64 or float64 of a view taken
// in process, or the float64 a JSON round trip leaves.
func attrNum(attrs map[string]any, key string) (float64, bool) {
	switch v := attrs[key].(type) {
	case int64:
		return float64(v), true
	case float64:
		return v, true
	}
	return 0, false
}

// Text renders the trace as its operator table under the query text:
//
//	EXPLAIN ANALYZE  trace=<id>  total=12.345ms
//	  | SELECT ...
//
//	operator                         stage        est     actual    q-err   rows-out         time
//	fragment                             0       1234         56     22.0         56      4.500ms
func (v TraceJSON) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN ANALYZE  trace=%s  total=%.3fms\n", v.ID, v.DurationMS)
	if q, _ := v.Root.Attrs["query"].(string); q != "" {
		for _, line := range strings.Split(strings.TrimSpace(q), "\n") {
			b.WriteString("  | " + line + "\n")
		}
	}
	fmt.Fprintf(&b, "\n%-32s %5s %10s %10s %8s %10s %12s\n",
		"operator", "stage", "est", "actual", "q-err", "rows-out", "time")
	cell := func(attrs map[string]any, key, format string) string {
		if n, ok := attrNum(attrs, key); ok {
			return fmt.Sprintf(format, n)
		}
		return "-"
	}
	var walk func(ops []SpanJSON, depth int)
	walk = func(ops []SpanJSON, depth int) {
		for _, s := range ops {
			fmt.Fprintf(&b, "%-32s %5s %10s %10s %8s %10s %11.3fms\n",
				strings.Repeat("  ", depth)+s.Attrs["op"].(string),
				cell(s.Attrs, "stage", "%.0f"), cell(s.Attrs, "estRows", "%.0f"),
				cell(s.Attrs, "actualRows", "%.0f"), cell(s.Attrs, "qError", "%.1f"),
				cell(s.Attrs, "rowsOut", "%.0f"), s.DurationMS)
			walk(s.Operators(), depth+1)
		}
	}
	walk(v.Operators(), 0)
	return b.String()
}

// ms converts a duration to fractional milliseconds (microsecond
// resolution, the precision span timings need).
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
