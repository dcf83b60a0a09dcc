package obs

import (
	"context"
	"strings"
)

// TraceContext is a parsed W3C Trace Context (traceparent + tracestate)
// header pair: the distributed-trace identity a caller hands the
// mediator on /sparql, and the identity the mediator hands each
// endpoint on outbound sub-queries.
type TraceContext struct {
	TraceID string // 32 lowercase hex characters, non-zero
	SpanID  string // 16 lowercase hex characters, non-zero ("" when only a trace id is known)
	Sampled bool   // the sampled flag from traceparent's trace-flags
	State   string // the companion tracestate header, propagated verbatim
}

// ParseTraceparent parses a traceparent header per the W3C Trace
// Context recommendation: `version "-" trace-id "-" parent-id "-"
// trace-flags`. It accepts any non-ff version (future versions may
// append further `-`-separated fields, which are ignored) and rejects
// malformed, all-zero or upper-case ids, returning ok=false.
func ParseTraceparent(header string) (tc TraceContext, ok bool) {
	h := strings.TrimSpace(header)
	// Fixed-width prefix: 2 (version) + 1 + 32 (trace-id) + 1 + 16
	// (parent-id) + 1 + 2 (trace-flags) = 55 characters.
	if len(h) < 55 {
		return TraceContext{}, false
	}
	version, traceID, parentID, flags := h[0:2], h[3:35], h[36:52], h[53:55]
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceContext{}, false
	}
	if !isLowerHex(version) || version == "ff" {
		return TraceContext{}, false
	}
	if version == "00" && len(h) != 55 {
		return TraceContext{}, false
	}
	if len(h) > 55 && h[55] != '-' {
		return TraceContext{}, false
	}
	if !isLowerHex(traceID) || allZero(traceID) {
		return TraceContext{}, false
	}
	if !isLowerHex(parentID) || allZero(parentID) {
		return TraceContext{}, false
	}
	if !isLowerHex(flags) {
		return TraceContext{}, false
	}
	return TraceContext{
		TraceID: traceID,
		SpanID:  parentID,
		Sampled: hexNibble(flags[1])&0x1 == 1,
	}, true
}

func hexNibble(c byte) byte {
	if c >= 'a' {
		return c - 'a' + 10
	}
	return c - '0'
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return len(s) > 0
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

type remoteKey struct{}

// WithRemoteParent stores an inbound trace context on ctx for the next
// NewTrace call to adopt. The HTTP layer parses traceparent/tracestate,
// calls this, and lets the query path create its trace as usual — the
// created trace then continues the caller's distributed trace instead
// of starting a fresh one.
func WithRemoteParent(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, remoteKey{}, tc)
}

func remoteParentFrom(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(remoteKey{}).(TraceContext)
	return tc, ok
}

// TraceparentFrom returns the traceparent header value identifying the
// span carried by ctx — the value an outbound sub-query should send so
// the endpoint's work hangs under the current span — or "" when ctx
// carries no trace. The header is the one allocation: the span id is
// formatted straight into it.
func TraceparentFrom(ctx context.Context) string {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	if s == nil || s.trace == nil {
		return ""
	}
	b := make([]byte, 0, 55)
	b = append(append(append(b, "00-"...), s.trace.id...), '-')
	b = append(appendHex(b, s.id), "-00"...)
	if s.trace.sampled {
		b[len(b)-1] = '1'
	}
	return string(b)
}

// TracestateFrom returns the tracestate header value to propagate on
// outbound sub-queries, or "".
func TracestateFrom(ctx context.Context) string {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	if s == nil || s.trace == nil {
		return ""
	}
	return s.trace.state
}
