package obs

import (
	"context"
	"strings"
	"testing"
)

func TestParseTraceparent(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tc, ok := ParseTraceparent(valid)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) not ok", valid)
	}
	if tc.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || tc.SpanID != "00f067aa0ba902b7" || !tc.Sampled {
		t.Errorf("parsed = %+v", tc)
	}
	if got := traceparent(tc); got != valid {
		t.Errorf("traceparent(%+v) = %q, want round-trip %q", tc, got, valid)
	}

	if tc, ok := ParseTraceparent(" " + strings.ReplaceAll(valid, "-01", "-00") + " "); !ok || tc.Sampled {
		t.Errorf("unsampled flags: ok=%v tc=%+v", ok, tc)
	}
	// Future version: extra fields after flags are tolerated.
	if _, ok := ParseTraceparent("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); !ok {
		t.Error("future-version traceparent with trailing field rejected")
	}

	invalid := []string{
		"",
		"00",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // forbidden version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",       // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",       // zero span id
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",       // upper case
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g",       // non-hex flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",          // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", // version 00 must have exactly 4 fields
		"00x4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // bad delimiter
	}
	for _, h := range invalid {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", h)
		}
	}
}

func TestRemoteParentAdoption(t *testing.T) {
	in := TraceContext{
		TraceID: "4bf92f3577b34da6a3ce929d0e0e4736",
		SpanID:  "00f067aa0ba902b7",
		Sampled: true,
		State:   "congo=t61rcWkgMzE",
	}
	ctx, trace := NewTrace(WithRemoteParent(context.Background(), in), "query")
	if trace.ID() != in.TraceID {
		t.Errorf("trace ID = %q, want adopted %q", trace.ID(), in.TraceID)
	}
	if trace.ParentSpanID() != in.SpanID {
		t.Errorf("parent span = %q, want %q", trace.ParentSpanID(), in.SpanID)
	}

	// The outbound traceparent names the *current* span as parent — same
	// trace id, fresh span id, caller's sampled flag.
	subCtx, sub := StartSpan(ctx, "subquery")
	out, ok := ParseTraceparent(TraceparentFrom(subCtx))
	if !ok {
		t.Fatalf("TraceparentFrom produced unparseable value %q", TraceparentFrom(subCtx))
	}
	if out.TraceID != in.TraceID {
		t.Errorf("outbound trace id = %q, want caller's %q", out.TraceID, in.TraceID)
	}
	if out.SpanID != sub.SpanID() || out.SpanID == in.SpanID {
		t.Errorf("outbound span id = %q, want the subquery span %q", out.SpanID, sub.SpanID())
	}
	if !out.Sampled {
		t.Error("outbound sampled flag dropped")
	}
	if TracestateFrom(subCtx) != in.State {
		t.Errorf("TracestateFrom = %q, want %q", TracestateFrom(subCtx), in.State)
	}

	// An unsampled caller stays unsampled downstream.
	ctx2, tr2 := NewTrace(WithRemoteParent(context.Background(), TraceContext{
		TraceID: in.TraceID, SpanID: in.SpanID, Sampled: false,
	}), "query")
	if tr2.Sampled() {
		t.Error("unsampled remote parent produced a sampled trace")
	}
	if out2, _ := ParseTraceparent(TraceparentFrom(ctx2)); out2.Sampled {
		t.Error("outbound traceparent sampled despite unsampled parent")
	}

	// A trace-id-only context (header absent; HTTP layer minted the id to
	// answer X-Trace-Id early) adopts the id but records no remote parent.
	_, tr3 := NewTrace(WithRemoteParent(context.Background(), TraceContext{
		TraceID: NewTraceID(), Sampled: true,
	}), "query")
	if tr3.ParentSpanID() != "" {
		t.Errorf("id-only remote context produced parent span %q", tr3.ParentSpanID())
	}
}

func TestNewIDsWellFormed(t *testing.T) {
	for i := 0; i < 100; i++ {
		if id := NewTraceID(); len(id) != 32 || !isLowerHex(id) || allZero(id) {
			t.Fatalf("NewTraceID() = %q", id)
		}
		if id := hexUint64(newSpanID()); len(id) != 16 || !isLowerHex(id) || allZero(id) {
			t.Fatalf("span id = %q", id)
		}
	}
}

// FuzzParseTraceparent holds the parser of an outside-supplied header to
// its contract: it never panics, whatever it accepts carries lowercase-hex,
// non-zero ids of the right widths, and the context it yields formats back
// into a header that parses to the same identity.
func FuzzParseTraceparent(f *testing.F) {
	for _, h := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00",
		"  00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-03  ",
		"cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-what-the-future-holds",
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-",
		"00-0af7651916cd43dd8448eb211c80319c_b7ad6b7169203331-01",
		"",
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, header string) {
		tc, ok := ParseTraceparent(header)
		if !ok {
			return
		}
		for _, id := range []struct {
			name, v string
			width   int
		}{{"trace id", tc.TraceID, 32}, {"span id", tc.SpanID, 16}} {
			if len(id.v) != id.width || strings.Trim(id.v, "0123456789abcdef") != "" || strings.Trim(id.v, "0") == "" {
				t.Fatalf("%q accepted with %s %q", header, id.name, id.v)
			}
		}
		back, ok := ParseTraceparent(traceparent(tc))
		if !ok || back.TraceID != tc.TraceID || back.SpanID != tc.SpanID || back.Sampled != tc.Sampled {
			t.Fatalf("%q parsed to %+v, which formats to %q and parses back to %+v (ok=%v)",
				header, tc, traceparent(tc), back, ok)
		}
	})
}

// traceparent formats a parsed context as a version-00 traceparent header.
func traceparent(tc TraceContext) string {
	flags := "00"
	if tc.Sampled {
		flags = "01"
	}
	return "00-" + tc.TraceID + "-" + tc.SpanID + "-" + flags
}
