package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparqlrw/internal/srjson"
)

// span is one recorded interval of the traced pass: a client request, or
// one endpoint request the mediator made on its behalf. Spans of one
// request share a trace id; the endpoint spans' Parent is the mediator's
// own sub-query span id, as it arrived in the traceparent header.
type span struct {
	TraceID string
	SpanID  string
	Parent  string
	Name    string
	Start   time.Time
	End     time.Time
	// FirstSolution is set on request spans only.
	FirstSolution time.Time
	Rows          int64
	Bytes         int64
	// body is the captured endpoint response; rows are counted from it
	// after the pass, outside every timed interval.
	body []byte
}

func (s span) traceparent() string {
	return "00-" + s.TraceID + "-" + s.SpanID + "-01"
}

// splitTraceparent returns the trace id and parent span id of a W3C
// traceparent header value, or empty strings when it is absent.
func splitTraceparent(h string) (traceID, parent string) {
	parts := strings.Split(h, "-")
	if len(parts) < 4 {
		return "", ""
	}
	return parts[1], parts[2]
}

// recorder keeps the traced pass's spans in memory. While off, the
// endpoint taps do no work beyond their request counter.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// requestSpan mints the ids for client c's op-th request.
func requestSpan(c, op int) span {
	return span{
		TraceID: fmt.Sprintf("%016x%016x", c+1, op),
		SpanID:  fmt.Sprintf("%016x", op),
		Name:    "request",
	}
}

// take stops recording and returns the spans, with each endpoint span's
// row count decoded from its captured body.
func (r *recorder) take() ([]span, error) {
	r.on.Store(false)
	r.mu.Lock()
	spans := r.spans
	r.spans = nil
	r.mu.Unlock()
	for i := range spans {
		if spans[i].body == nil {
			continue
		}
		n, err := countRows(spans[i].body)
		if err != nil {
			return nil, fmt.Errorf("%s response: %w", spans[i].Name, err)
		}
		spans[i].Rows = n
	}
	return spans, nil
}

func countRows(body []byte) (int64, error) {
	dec, err := srjson.NewStreamDecoder(bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	var n int64
	for {
		_, err := dec.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

// requestTrace is one request's share of the traced pass.
type requestTrace struct {
	request   span
	endpoints []span
}

// groupByRequest attaches endpoint spans to the request whose trace id
// they carry. Endpoint spans of no benchmark request (a view refresh
// running in the background) belong to none and are left out.
func groupByRequest(spans []span) []requestTrace {
	var requests []requestTrace
	index := map[string]int{}
	for _, s := range spans {
		if s.Name == "request" {
			index[s.TraceID] = len(requests)
			requests = append(requests, requestTrace{request: s})
		}
	}
	for _, s := range spans {
		if s.Name == "request" {
			continue
		}
		if i, ok := index[s.TraceID]; ok {
			requests[i].endpoints = append(requests[i].endpoints, s)
		}
	}
	return requests
}

// busy is the sum of the endpoint spans' durations.
func (t requestTrace) busy() time.Duration {
	var d time.Duration
	for _, s := range t.endpoints {
		d += s.End.Sub(s.Start)
	}
	return d
}

// blocking is the part of the request's interval during which at least
// one endpoint request was in flight: the union of the endpoint spans,
// clipped to the request span.
func (t requestTrace) blocking() time.Duration {
	ivs := make([]interval, 0, len(t.endpoints))
	for _, s := range t.endpoints {
		iv := interval{s.Start, s.End}
		if iv.start.Before(t.request.Start) {
			iv.start = t.request.Start
		}
		if iv.end.After(t.request.End) {
			iv.end = t.request.End
		}
		ivs = append(ivs, iv)
	}
	return unionLength(ivs)
}

// self is the request's duration minus the part its endpoint spans
// cover: mediator, front HTTP and load-generator time.
func (t requestTrace) self() time.Duration {
	return t.request.End.Sub(t.request.Start) - t.blocking()
}

type interval struct{ start, end time.Time }

// unionLength is the total time covered by at least one interval.
func unionLength(ivs []interval) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].start.Before(ivs[b].start) })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range ivs {
		if !iv.end.After(iv.start) {
			continue
		}
		switch {
		case !open:
			cur, open = iv, true
		case iv.start.After(cur.end):
			total += cur.end.Sub(cur.start)
			cur = iv
		case iv.end.After(cur.end):
			cur.end = iv.end
		}
	}
	if open {
		total += cur.end.Sub(cur.start)
	}
	return total
}

// spanJSON is the on-disk form: times as microseconds from the pass's
// first span.
type spanJSON struct {
	TraceID         string  `json:"traceId"`
	SpanID          string  `json:"spanId,omitempty"`
	Parent          string  `json:"parent,omitempty"`
	Name            string  `json:"name"`
	StartUS         float64 `json:"startUs"`
	EndUS           float64 `json:"endUs"`
	FirstSolutionUS float64 `json:"firstSolutionUs,omitempty"`
	Rows            int64   `json:"rows"`
	Bytes           int64   `json:"bytes,omitempty"`
}

// writeSpans writes the traced pass to path.
func writeSpans(path string, spans []span) error {
	if len(spans) == 0 {
		return nil
	}
	origin := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(origin) {
			origin = s.Start
		}
	}
	us := func(t time.Time) float64 { return float64(t.Sub(origin).Nanoseconds()) / 1e3 }
	out := make([]spanJSON, len(spans))
	for i, s := range spans {
		out[i] = spanJSON{TraceID: s.TraceID, SpanID: s.SpanID, Parent: s.Parent, Name: s.Name,
			StartUS: us(s.Start), EndUS: us(s.End), Rows: s.Rows, Bytes: s.Bytes}
		if !s.FirstSolution.IsZero() {
			out[i].FirstSolutionUS = us(s.FirstSolution)
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
