package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"sparqlrw/internal/raceflag"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace documents under testdata")

// goldenTrace builds one finished trace of nine spans — one past the
// trace's inline block — carrying string, int, float and bool attributes
// the way the pipeline records them, a replaced value, and an operator
// profile whose keys run past a span's inline attribute slots.
func goldenTrace() *Trace {
	ctx, tr := NewTrace(WithRemoteParent(context.Background(), TraceContext{
		TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SpanID: "00f067aa0ba902b7",
		Sampled: true, State: "congo=t61rcWkgMzE",
	}), "query")
	root := tr.Root()
	root.SetString("form", "select")
	root.SetString("query", "SELECT ?a WHERE { ?p <http://www.aktors.org/ontology/portal#has-author> ?a }")

	_, plan := StartSpan(ctx, "plan")
	plan.SetString("sourceOnt", "http://www.aktors.org/ontology/portal#")
	st := Operator("source-selection")
	st.RowsIn, st.RowsOut = 3, 2
	plan.SetOperator(st)
	plan.End()

	fctx, fed := StartSpan(ctx, "federate")
	fed.SetInt("targets", 2)
	for i, ds := range []string{"http://a.example/void", "http://b.example/void"} {
		endpoint := strings.Replace(ds, "void", "sparql", 1)
		sctx, sub := StartSpan(fctx, "subquery")
		sub.SetString("op", "subquery")
		sub.SetString("dataset", ds)
		sub.SetString("endpoint", endpoint)
		if i == 1 {
			_, rw := StartSpan(sctx, "rewrite")
			rw.SetBool("cached", false)
			rw.End()
			sub.SetFloat("backoffMs", 2.0) // a whole float stays a double in OTLP
		}
		_, att := StartSpan(sctx, "attempt")
		att.SetInt("n", 1)
		att.SetString("endpoint", endpoint)
		att.SetFloat("latencyMs", 1.25)
		att.SetInt("rows", int64(7+i))
		att.SetInt("bytes", 512)
		att.SetFloat("ttfsMs", 0.5)
		if i == 1 {
			att.SetString("error", "endpoint returned 503")
		}
		att.End()
		sub.SetInt("solutions", int64(7+i))
		sub.SetInt("attempts", 1)
		sub.End()
	}
	fed.SetInt("duplicates", 0)
	fed.SetBool("partial", true)
	fed.End()

	_, frag := StartSpan(ctx, "fragment") // left open: Finish closes it
	frag.SetString("dataset", "http://a.example/void")
	frag.SetOperator(OperatorStats{Op: "fragment", Stage: 1, RowsIn: -1, RowsOut: 9, Solutions: 0,
		Bytes: -1, EstRows: 12, ActualRows: 9, QError: 12.0 / 9, FirstRowMS: 0.75})
	frag.SetInt("rowsOut", 10) // replaced past the inline slots
	root.SetFloat("ttfsMs", 3.5)
	tr.Finish()
	return tr
}

var (
	goldenID   = regexp.MustCompile(`"(id|spanId|traceId|parentSpanId)":"([0-9a-f]+)"`)
	goldenTime = regexp.MustCompile(`"(startMs|durationMs)":[-+.e0-9]+|"(start|startTimeUnixNano|endTimeUnixNano)":"[^"]*"`)
)

// normalizeTrace numbers a document's ids in order of first appearance and
// zeroes its clock readings, so two runs of one span tree compare equal
// byte for byte, parent links included.
func normalizeTrace(t *testing.T, doc []byte) []byte {
	ids := map[string]int{}
	s := goldenID.ReplaceAllStringFunc(string(doc), func(m string) string {
		sub := goldenID.FindStringSubmatch(m)
		n, ok := ids[sub[2]]
		if !ok {
			n = len(ids) + 1
			ids[sub[2]] = n
		}
		return fmt.Sprintf(`"%s":"#%d"`, sub[1], n)
	})
	s = goldenTime.ReplaceAllStringFunc(s, func(m string) string {
		return m[:strings.Index(m, ":")] + ":0"
	})
	var out bytes.Buffer
	if err := json.Indent(&out, []byte(s), "", "  "); err != nil {
		t.Fatalf("normalized document is not JSON: %v\n%s", err, s)
	}
	out.WriteByte('\n')
	return out.Bytes()
}

// TestTraceDocumentsGolden pins what a span tree exports: Trace.JSON (the
// shape explain=trace, /api/trace and the audit record carry) and the OTLP
// request body, ints as JSON numbers and as OTLP intValue strings.
func TestTraceDocumentsGolden(t *testing.T) {
	tr := goldenTrace()
	body, spans := (&OTLPExporter{opts: OTLPOptions{Service: "golden"}}).encode([]*Trace{tr})
	if spans != 9 {
		t.Errorf("encoded %d spans, want 9", spans)
	}
	for _, doc := range []struct {
		file string
		got  []byte
	}{{"trace.golden.json", tr.JSON()}, {"otlp.golden.json", body}} {
		path := filepath.Join("testdata", doc.file)
		got := normalizeTrace(t, doc.got)
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the golden document:\n%s", doc.file, got)
		}
	}
}

// TestSpansRace opens, annotates and ends spans from 8 goroutines under
// one parent, well past the trace's inline block, while the trace is
// viewed, finished and recorded. Run it under -race.
func TestSpansRace(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "query")
	pctx, parent := StartSpan(ctx, "federate")
	ring := NewTraceRing(4)
	const workers, spans = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				sctx, s := StartSpan(pctx, "subquery")
				s.SetInt("worker", int64(w))
				s.SetString("endpoint", "http://a.example/sparql")
				_, a := StartSpan(sctx, "attempt")
				a.SetFloat("latencyMs", 1.5)
				a.SetBool("ok", true)
				if TraceparentFrom(sctx) == "" {
					t.Error("no traceparent under a live span")
				}
				a.End()
				s.SetInt("rows", int64(i))
				s.End()
			}
		}(w)
	}
	readers := make(chan struct{})
	go func() {
		defer close(readers)
		for i := 0; i < 20; i++ {
			tr.View()
			ring.Add(tr)
		}
		tr.Finish()
		tr.JSON()
	}()
	wg.Wait()
	<-readers
	parent.End()
	tr.Finish()
	v := tr.View()
	if len(v.Root.Children) != 1 || len(v.Root.Children[0].Children) != workers*spans {
		t.Fatalf("federate span has %d children, want %d", len(v.Root.Children[0].Children), workers*spans)
	}
	for _, c := range v.Root.Children[0].Children {
		if len(c.Children) != 1 || c.Attrs["endpoint"] == nil {
			t.Fatalf("subquery span %+v", c)
		}
	}
}

// TestNilSpanAllocations: with tracing off every span call is a no-op,
// and a typed setter has nothing to box, so none of them allocates.
func TestNilSpanAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	var s *Span
	err := errors.New("endpoint returned 503")
	st := Operator("fragment")
	st.RowsOut, st.QError = 9, 1.5
	n := 0
	got := testing.AllocsPerRun(100, func() {
		n++
		s.SetString("error", err.Error())
		s.SetInt("rows", int64(n))
		s.SetFloat("latencyMs", float64(n)/1000)
		s.SetBool("partial", n%2 == 0)
		s.SetOperator(st)
		s.End()
	})
	if got != 0 {
		t.Errorf("%.0f allocations on a nil span, want 0", got)
	}
}

// TestTraceAllocations replays the trace of one Figure-1 request — its
// 8 spans with their attributes (the root's result-cache decision among
// them), an operator profile, the traceparent of
// each of its two endpoint requests, Finish and the ring — from the
// context the HTTP layer hands the query path. The trace is one
// allocation and each traceparent header another: 3, against the 90 or
// so the same trace cost while every span boxed its attributes, wrapped
// its context and formatted its id when it was opened.
func TestTraceAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const ceiling = 4
	reqCtx := WithRemoteParent(context.Background(), TraceContext{TraceID: NewTraceID(), Sampled: true})
	ring := NewTraceRing(128)
	datasets := [...]string{"http://southampton.rkbexplorer.com/id/void", "http://kisti.rkbexplorer.com/id/void"}
	endpoints := [...]string{"http://127.0.0.1:1/sparql", "http://127.0.0.1:2/sparql"}
	query := "SELECT DISTINCT ?a WHERE { ... }"
	var headers int
	got := testing.AllocsPerRun(200, func() {
		ctx, tr := NewTrace(reqCtx, "query")
		root := tr.Root()
		root.SetString("form", "select")
		root.SetString("query", query)
		root.SetString("resultCache", "bypass")
		root.SetString("reason", "off")
		_, plan := StartSpan(ctx, "plan")
		st := Operator("source-selection")
		st.RowsIn, st.RowsOut = 3, 2
		plan.SetOperator(st)
		plan.End()
		fctx, fed := StartSpan(ctx, "federate")
		fed.SetInt("targets", 2)
		for i := range datasets {
			sctx, sub := StartSpan(fctx, "subquery")
			sub.SetString("op", "subquery")
			sub.SetString("dataset", datasets[i])
			sub.SetString("endpoint", endpoints[i])
			if i == 1 {
				_, rw := StartSpan(sctx, "rewrite")
				rw.SetBool("cached", false)
				rw.End()
			}
			actx, att := StartSpan(sctx, "attempt")
			att.SetInt("n", 1)
			att.SetString("endpoint", endpoints[i])
			headers += len(TraceparentFrom(actx))
			att.SetFloat("latencyMs", 1.25)
			att.SetInt("rows", 11)
			att.SetInt("bytes", 2048)
			att.SetFloat("ttfsMs", 0.5)
			att.End()
			sub.SetInt("solutions", 11)
			sub.SetInt("attempts", 1)
			sub.End()
		}
		fed.SetInt("duplicates", 0)
		fed.SetBool("partial", false)
		fed.End()
		root.SetFloat("ttfsMs", 2.5)
		tr.Finish()
		ring.Add(tr)
	})
	if headers != 201*2*55 {
		t.Fatalf("%d traceparent bytes, want two 55-byte headers a request", headers)
	}
	if spans := len(ring.Recent(1)[0].View().Root.Children); spans != 2 {
		t.Fatalf("root has %d children, want plan and federate", spans)
	}
	t.Logf("%.0f allocations per traced Figure-1 request", got)
	if got > ceiling {
		t.Errorf("%.0f allocations per traced Figure-1 request, want at most %d", got, ceiling)
	}
}
