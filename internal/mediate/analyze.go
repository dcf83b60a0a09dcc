package mediate

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"sparqlrw/internal/obs"
)

// EXPLAIN ANALYZE: the executed query's operator tree annotated with
// estimated vs actual cardinalities and per-operator q-error. The
// pipeline stages record typed operator attributes on their trace spans
// (obs.OperatorStats); this file projects a finished trace's span tree
// onto just those operator spans — the shape `explain=analyze` ships in
// the response trailer and GET /api/analyze/{traceId} renders for
// humans.

// AnalyzeNode is one operator in the EXPLAIN ANALYZE tree. Pointer
// fields distinguish "not recorded" (omitted) from a real zero (an
// operator that produced nothing).
type AnalyzeNode struct {
	// Op is the operator kind: "source-selection", "decompose",
	// "fragment", "bound-join", "hash-join", "filter", "distinct-limit",
	// or "subquery" for one endpoint dispatch.
	Op string `json:"op"`
	// Stage is the operator's position in the decomposition pipeline.
	Stage *int64 `json:"stage,omitempty"`
	// StartMS/DurationMS locate the operator on the query's timeline.
	StartMS    float64 `json:"startMs"`
	DurationMS float64 `json:"durationMs"`
	// RowsIn/RowsOut count solutions entering/leaving the operator.
	RowsIn  *int64 `json:"rowsIn,omitempty"`
	RowsOut *int64 `json:"rowsOut,omitempty"`
	// Solutions counts endpoint solutions fetched; Bytes counts response
	// bytes transferred.
	Solutions *int64 `json:"solutions,omitempty"`
	Bytes     *int64 `json:"bytes,omitempty"`
	// EstimatedRows vs ActualRows is the planner's estimate against the
	// observed cardinality; QError is max(est/actual, actual/est).
	EstimatedRows *int64   `json:"estimatedRows,omitempty"`
	ActualRows    *int64   `json:"actualRows,omitempty"`
	QError        *float64 `json:"qError,omitempty"`
	// FirstRowMS is the latency to the operator's first output row.
	FirstRowMS *float64 `json:"firstRowMs,omitempty"`
	// Children are operators nested under this one (a bound join's
	// VALUES-shard dispatches, for example).
	Children []*AnalyzeNode `json:"children,omitempty"`
}

// Analyze is the EXPLAIN ANALYZE document for one executed query.
type Analyze struct {
	TraceID string `json:"traceId"`
	// Query is the executed query text — stored once on the trace root,
	// never per operator span.
	Query      string         `json:"query,omitempty"`
	DurationMS float64        `json:"durationMs"`
	Operators  []*AnalyzeNode `json:"operators"`
}

// buildAnalyze projects a trace view onto its operator tree: spans
// carrying an "op" attribute become nodes; spans without one are
// transparent (their operator descendants attach to the nearest
// operator ancestor, or to the root list).
func buildAnalyze(v obs.TraceJSON) *Analyze {
	a := &Analyze{TraceID: v.ID, DurationMS: v.DurationMS}
	if q, ok := v.Root.Attrs["query"].(string); ok {
		a.Query = q
	}
	a.Operators = collectOperators(v.Root)
	sortNodes(a.Operators)
	return a
}

func collectOperators(s obs.SpanJSON) []*AnalyzeNode {
	if op, ok := s.Attrs["op"].(string); ok && op != "" {
		n := &AnalyzeNode{
			Op:            op,
			Stage:         attrInt(s.Attrs, "stage"),
			StartMS:       s.StartMS,
			DurationMS:    s.DurationMS,
			RowsIn:        attrInt(s.Attrs, "rowsIn"),
			RowsOut:       attrInt(s.Attrs, "rowsOut"),
			Solutions:     attrInt(s.Attrs, "solutions"),
			Bytes:         attrInt(s.Attrs, "bytes"),
			EstimatedRows: attrInt(s.Attrs, "estRows"),
			ActualRows:    attrInt(s.Attrs, "actualRows"),
			QError:        attrFloat(s.Attrs, "qError"),
			FirstRowMS:    attrFloat(s.Attrs, "firstRowMs"),
		}
		for _, c := range s.Children {
			n.Children = append(n.Children, collectOperators(c)...)
		}
		sortNodes(n.Children)
		return []*AnalyzeNode{n}
	}
	var out []*AnalyzeNode
	for _, c := range s.Children {
		out = append(out, collectOperators(c)...)
	}
	return out
}

// sortNodes orders sibling operators by start time: spans are appended
// in creation order, but the lazily-evaluated pipeline opens the final
// stage's span before the fragments it consumes start producing.
func sortNodes(ns []*AnalyzeNode) {
	sort.SliceStable(ns, func(i, j int) bool {
		si, sj := int64(-1), int64(-1)
		if ns[i].Stage != nil {
			si = *ns[i].Stage
		}
		if ns[j].Stage != nil {
			sj = *ns[j].Stage
		}
		if si != sj {
			return si < sj
		}
		return ns[i].StartMS < ns[j].StartMS
	})
}

// attrInt reads one numeric attr as int64: the int64 a trace view holds
// in-process or the float64 a JSON round-trip produces.
func attrInt(attrs map[string]any, key string) *int64 {
	switch v := attrs[key].(type) {
	case int64:
		return &v
	case float64:
		n := int64(v)
		return &n
	}
	return nil
}

func attrFloat(attrs map[string]any, key string) *float64 {
	switch v := attrs[key].(type) {
	case float64:
		return &v
	case int64:
		f := float64(v)
		return &f
	}
	return nil
}

// explainAnalyze finishes the query's trace (execution is done once the
// stream drains; serialisation time is not part of the query) and
// returns the marshalled EXPLAIN ANALYZE document for the
// explain=analyze trailer.
func explainAnalyze(res *Result) json.RawMessage {
	t := res.Trace()
	if t == nil {
		return nil
	}
	t.Finish()
	data, err := json.Marshal(buildAnalyze(t.View()))
	if err != nil {
		data, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	return data
}

// Text renders the analyze document as an indented operator table:
//
//	op                 stage      est   actual   q-err  rows-out     time
//	fragment               0     1234       56    22.0        56    4.5ms
func (a *Analyze) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN ANALYZE  trace=%s  total=%.3fms\n", a.TraceID, a.DurationMS)
	if a.Query != "" {
		for _, line := range strings.Split(strings.TrimSpace(a.Query), "\n") {
			b.WriteString("  | " + line + "\n")
		}
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-32s %5s %10s %10s %8s %10s %12s\n",
		"operator", "stage", "est", "actual", "q-err", "rows-out", "time")
	var walk func(ns []*AnalyzeNode, depth int)
	walk = func(ns []*AnalyzeNode, depth int) {
		for _, n := range ns {
			name := strings.Repeat("  ", depth) + n.Op
			fmt.Fprintf(&b, "%-32s %5s %10s %10s %8s %10s %11.3fms\n",
				name, fmtInt(n.Stage), fmtInt(n.EstimatedRows), fmtInt(n.ActualRows),
				fmtQ(n.QError), fmtInt(n.RowsOut), n.DurationMS)
			walk(n.Children, depth+1)
		}
	}
	walk(a.Operators, 0)
	return b.String()
}

func fmtInt(v *int64) string {
	if v == nil {
		return "-"
	}
	return fmt.Sprintf("%d", *v)
}

func fmtQ(v *float64) string {
	if v == nil {
		return "-"
	}
	return fmt.Sprintf("%.1f", *v)
}
