package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// AuditRecord is one flight-recorder entry: everything needed to
// understand — and replay — a slow or failed query after the fact.
type AuditRecord struct {
	Time       time.Time `json:"time"`
	TraceID    string    `json:"traceId"`
	Form       string    `json:"form,omitempty"`
	Query      string    `json:"query"`
	DurationMS float64   `json:"durationMs"`
	Error      string    `json:"error,omitempty"`
	Slow       bool      `json:"slow,omitempty"`
	// Explain carries the resolved plan / decomposition explanation the
	// mediator produced for the query, in the /api/plan shape.
	Explain any `json:"explain,omitempty"`
	// Trace is the query's full span tree.
	Trace *TraceJSON `json:"trace,omitempty"`
}

// FlightRecorder persists audit records as JSON lines in a size-bounded
// on-disk ring: segment files audit-<seq>.jsonl under one directory,
// rotated at segment capacity, oldest segment deleted when the
// directory exceeds its byte budget. Writes are synchronous but small
// (one marshalled line); a write error disables nothing — the next
// record tries again. Safe for concurrent use.
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

// Record appends one entry. Nil-safe: a nil recorder drops silently.
func (r *FlightRecorder) Record(rec AuditRecord) error {
	if r == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("obs: audit record: %w", err)
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

// Page returns up to limit raw records starting offset entries back
// from the newest, newest first, plus the total record count across all
// segments (limit <= 0 means 100; a negative offset is treated as 0).
// Records are returned as raw JSON lines — already marshalled at record
// time — so listing never depends on the Explain payload's type.
func (r *FlightRecorder) Page(offset, limit int) ([]json.RawMessage, int) {
	if r == nil {
		return nil, 0
	}
	if limit <= 0 {
		limit = 100
	}
	if offset < 0 {
		offset = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	segs := r.segments()
	var out []json.RawMessage
	total, skip := 0, offset
	for i := len(segs) - 1; i >= 0; i-- {
		lines := readLines(segs[i].path)
		total += len(lines)
		for j := len(lines) - 1; j >= 0; j-- {
			if skip > 0 {
				skip--
				continue
			}
			if len(out) < limit {
				out = append(out, lines[j])
			}
		}
	}
	return out, total
}

// Find returns the record for one trace id, scanning newest first.
func (r *FlightRecorder) Find(traceID string) (json.RawMessage, bool) {
	if r == nil || traceID == "" {
		return nil, false
	}
	needle := []byte(`"traceId":` + strconv.Quote(traceID))
	r.mu.Lock()
	defer r.mu.Unlock()
	segs := r.segments()
	for i := len(segs) - 1; i >= 0; i-- {
		lines := readLines(segs[i].path)
		for j := len(lines) - 1; j >= 0; j-- {
			if bytes.Contains(lines[j], needle) {
				return lines[j], true
			}
		}
	}
	return nil, false
}

func readLines(path string) []json.RawMessage {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	var lines []json.RawMessage
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		lines = append(lines, json.RawMessage(append([]byte(nil), line...)))
	}
	return lines
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
