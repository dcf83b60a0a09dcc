package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// FlightRecorder persists the trace documents (TraceJSON, plan included)
// of slow or failed queries as JSON lines in a size-bounded on-disk ring:
// segment files audit-<seq>.jsonl under one directory, rotated at segment
// capacity, oldest segment deleted when the directory exceeds its byte
// budget. Writes are synchronous but small (one marshalled line); a write
// error disables nothing — the next record tries again. Safe for
// concurrent use.
type FlightRecorder struct {
	dir      string
	maxBytes int64 // total budget across segments
	segBytes int64 // rotate the active segment past this size

	mu    sync.Mutex
	f     *os.File
	fsize int64
	seq   int
}

// DefaultAuditMaxBytes is the default -audit-dir byte budget (16 MiB).
const DefaultAuditMaxBytes int64 = 16 << 20

const auditPrefix, auditSuffix = "audit-", ".jsonl"

// NewFlightRecorder opens (creating if needed) the recorder directory.
// maxBytes <= 0 selects DefaultAuditMaxBytes. Existing segments are
// kept: the recorder appends after the highest sequence number found.
func NewFlightRecorder(dir string, maxBytes int64) (*FlightRecorder, error) {
	if dir == "" {
		return nil, fmt.Errorf("obs: flight recorder needs a directory")
	}
	if maxBytes <= 0 {
		maxBytes = DefaultAuditMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: flight recorder: %w", err)
	}
	r := &FlightRecorder{dir: dir, maxBytes: maxBytes, segBytes: segmentSize(maxBytes)}
	for _, seg := range r.segments() {
		if seg.seq >= r.seq {
			r.seq = seg.seq
		}
	}
	return r, nil
}

// segmentSize keeps roughly 8 segments per budget so eviction is
// granular, clamped so tiny budgets still fit a few records per file.
func segmentSize(maxBytes int64) int64 {
	s := maxBytes / 8
	if s < 4<<10 {
		s = 4 << 10
	}
	if s > 4<<20 {
		s = 4 << 20
	}
	return s
}

type segment struct {
	seq  int
	path string
	size int64
}

// segments lists the recorder's files sorted oldest first.
func (r *FlightRecorder) segments() []segment {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return nil
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, auditPrefix) || !strings.HasSuffix(name, auditSuffix) {
			continue
		}
		seq, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, auditPrefix), auditSuffix))
		if err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		segs = append(segs, segment{seq: seq, path: filepath.Join(r.dir, name), size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs
}

// Record appends one trace document. Nil-safe: a nil recorder drops
// silently.
func (r *FlightRecorder) Record(doc TraceJSON) error {
	if r == nil {
		return nil
	}
	line, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("obs: flight record: %w", err)
	}
	line = append(line, '\n')
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f != nil && r.fsize+int64(len(line)) > r.segBytes {
		r.f.Close()
		r.f = nil
	}
	if r.f == nil {
		r.seq++
		f, err := os.OpenFile(filepath.Join(r.dir, fmt.Sprintf("%s%d%s", auditPrefix, r.seq, auditSuffix)),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("obs: audit segment: %w", err)
		}
		r.f = f
		r.fsize = 0
		r.enforceBudget()
	}
	n, err := r.f.Write(line)
	r.fsize += int64(n)
	return err
}

// enforceBudget deletes oldest segments until the directory fits the
// byte budget (the active segment is never deleted). Called with mu held.
func (r *FlightRecorder) enforceBudget() {
	segs := r.segments()
	var total int64
	for _, s := range segs {
		total += s.size
	}
	for _, s := range segs {
		if total <= r.maxBytes || s.seq == r.seq {
			break
		}
		if os.Remove(s.path) == nil {
			total -= s.size
		}
	}
}

// Page returns up to limit recorded trace documents starting offset
// records back from the newest, newest first, plus the number of records
// on disk, under TraceRing.Page's rule for limit and offset. Records are
// the raw JSON lines marshalled at record time.
func (r *FlightRecorder) Page(offset, limit int) ([]json.RawMessage, int) {
	if r == nil {
		return nil, 0
	}
	lines := r.lines()
	from, to := window(len(lines), offset, limit)
	return lines[from:to], len(lines)
}

// Find returns the newest recorded trace document with the given id.
func (r *FlightRecorder) Find(id string) (json.RawMessage, bool) {
	if r == nil || id == "" {
		return nil, false
	}
	// A TraceJSON marshals its id first.
	prefix := []byte(`{"id":` + strconv.Quote(id) + `,`)
	for _, line := range r.lines() {
		if bytes.HasPrefix(line, prefix) {
			return line, true
		}
	}
	return nil, false
}

// lines reads every recorded line, newest first, whatever its length.
func (r *FlightRecorder) lines() []json.RawMessage {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []json.RawMessage
	segs := r.segments()
	for i := len(segs) - 1; i >= 0; i-- {
		data, err := os.ReadFile(segs[i].path)
		if err != nil {
			continue
		}
		var seg []json.RawMessage
		for line := range bytes.Lines(data) {
			if line = bytes.TrimSpace(line); len(line) > 0 {
				seg = append(seg, line)
			}
		}
		slices.Reverse(seg)
		out = append(out, seg...)
	}
	return out
}

// Close closes the active segment.
func (r *FlightRecorder) Close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}
