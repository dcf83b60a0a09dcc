package obs

import "sync"

// TraceRing keeps the last N finished traces for GET /api/trace/{id}:
// enough history to inspect why a recent query was slow without growing
// without bound. Safe for concurrent use.
type TraceRing struct {
	mu   sync.Mutex
	buf  []*Trace
	next int // insertion cursor
	n    int // traces stored (≤ len(buf))
}

// NewTraceRing returns a ring holding up to capacity traces (minimum 1).
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{buf: make([]*Trace, capacity)}
}

// Add records a finished trace, evicting the oldest when full.
func (r *TraceRing) Add(t *Trace) {
	if t == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Get returns the trace with the given ID, or nil when it has been
// evicted (or never recorded).
func (r *TraceRing) Get(id string) *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.buf {
		if t != nil && t.id == id {
			return t
		}
	}
	return nil
}

// Recent returns up to limit traces, newest first (limit <= 0 returns
// all stored traces).
func (r *TraceRing) Recent(limit int) []*Trace {
	out, _ := r.Page(0, limit)
	return out
}

// Page returns up to limit traces starting offset entries back from the
// newest, newest first, plus the total number of stored traces. This is
// the one paging rule of the trace surfaces, FlightRecorder.Page's too:
// limit <= 0 returns everything past the offset, and a negative offset
// is treated as 0.
func (r *TraceRing) Page(offset, limit int) ([]*Trace, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	from, to := window(r.n, offset, limit)
	out := make([]*Trace, 0, to-from)
	for i := from + 1; i <= to; i++ {
		out = append(out, r.buf[(r.next-i+2*len(r.buf))%len(r.buf)])
	}
	return out, r.n
}

// window is the page [from, to) of n entries, newest first, that offset
// and limit select.
func window(n, offset, limit int) (from, to int) {
	from = min(max(offset, 0), n)
	if limit <= 0 || limit > n-from {
		return from, n
	}
	return from, from + limit
}
