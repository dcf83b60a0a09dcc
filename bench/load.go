package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/srjson"
	"sparqlrw/internal/workload"
)

// requestTimeout bounds one request so a hung mediator fails the run
// instead of hanging it.
const requestTimeout = 30 * time.Second

// sample is one attempted query.
type sample struct {
	start   time.Time
	latency time.Duration // send to last body byte
	ttfs    time.Duration // send to first solution from StreamDecoder.Next
	rows    int
	ok      bool
}

// passResult is what one pass of the load generator observed.
type passResult struct {
	samples []sample
	writes  []time.Duration // KB-update latencies, not query samples
	elapsed time.Duration
	// firstFailure describes the first failed operation, for diagnosis.
	firstFailure string
}

func (p *passResult) failed() int {
	n := 0
	for _, s := range p.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

func (p *passResult) rows() int64 {
	var n int64
	for _, s := range p.samples {
		n += int64(s.rows)
	}
	return n
}

// driver sends a workload's queries to the mediator's /sparql endpoint
// over real HTTP and checks every answer against the oracle.
type driver struct {
	spec spec
	seed int64
	pool []query
	fed  *federation
	http *http.Client
	// alignmentBody is the Turtle the write operation re-loads.
	alignmentBody string
}

func newDriver(s spec, seed int64, fed *federation) *driver {
	return &driver{
		spec: s, seed: seed, fed: fed,
		pool: s.pool(oracle{fed.u}),
		http: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 8},
			Timeout:   requestTimeout,
		},
		alignmentBody: align.FormatTurtle([]*align.OntologyAlignment{workload.AKT2KISTI()}),
	}
}

func (d *driver) close() { d.http.CloseIdleConnections() }

// query runs one GET /sparql and checks the answer. traceparent, when
// non-empty, is sent so the endpoint taps can attribute their spans.
func (d *driver) query(q query, traceparent string) (s sample, failure string) {
	target := d.fed.baseURL + "/sparql?query=" + url.QueryEscape(q.text)
	if q.limit > 0 {
		target += "&limit=" + strconv.Itoa(q.limit)
	}
	req, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		return s, err.Error()
	}
	req.Header.Set("Accept", "application/sparql-results+json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	start := time.Now()
	s.start = start
	resp, err := d.http.Do(req)
	if err != nil {
		s.latency = time.Since(start)
		return s, err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		s.latency = time.Since(start)
		return s, fmt.Sprintf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	dec, err := srjson.NewStreamDecoder(resp.Body)
	if err != nil {
		s.latency = time.Since(start)
		return s, err.Error()
	}
	var got answer
	for {
		sol, err := dec.Next()
		if got.rows == 0 {
			s.ttfs = time.Since(start) // an empty result's first solution is its completion
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			s.latency = time.Since(start)
			return s, err.Error()
		}
		got.addSolution(q.vars, sol)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // whatever follows the document's closing brace
	s.latency = time.Since(start)
	s.rows = got.rows
	if got != q.want {
		return s, fmt.Sprintf("wrong answer: got %d rows (hash %x), want %d rows (hash %x)",
			got.rows, got.hash, q.want.rows, q.want.hash)
	}
	s.ok = true
	return s, ""
}

// write re-loads the AKT→KISTI alignment: the rewrite-plan cache and the
// result cache flush and every view goes stale before the call returns.
func (d *driver) write() (time.Duration, string) {
	start := time.Now()
	resp, err := d.http.Post(d.fed.baseURL+"/api/alignments", "text/turtle", strings.NewReader(d.alignmentBody))
	if err != nil {
		return time.Since(start), err.Error()
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	took := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		return took, fmt.Sprintf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return took, ""
}

// limit ends a pass: at a deadline (timed runs, warm-up) or after a fixed
// number of operations per client (traced passes).
type limit struct {
	deadline time.Time
	ops      int
}

func (l limit) reached(done int) bool {
	if l.ops > 0 {
		return done >= l.ops
	}
	return !time.Now().Before(l.deadline)
}

// pass runs the closed loop: each client sends its next operation only
// after the previous answer is complete. traced passes send a
// traceparent per request and record a request span.
func (d *driver) pass(ctx context.Context, clients int, lim limit, traced bool) passResult {
	type clientResult struct {
		samples []sample
		writes  []time.Duration
		failure string
	}
	results := make([]clientResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			next := d.spec.draws(len(d.pool), clientRNG(d.seed, c))
			fail := func(what, msg string) {
				if res.failure == "" {
					res.failure = what + ": " + msg
				}
			}
			for op := 1; !lim.reached(op-1) && ctx.Err() == nil; op++ {
				if c == 0 && d.spec.writeEvery > 0 && op%d.spec.writeEvery == 0 {
					took, msg := d.write()
					res.writes = append(res.writes, took)
					if msg != "" {
						// A failed write is a failed operation: it shows
						// as one failed sample with the write's latency.
						res.samples = append(res.samples, sample{latency: took})
						fail("alignment write", msg)
					}
					continue
				}
				q := d.pool[next()]
				traceparent := ""
				var sp span
				if traced {
					sp = requestSpan(c, op)
					traceparent = sp.traceparent()
				}
				s, msg := d.query(q, traceparent)
				if traced {
					sp.Start, sp.End = s.start, s.start.Add(s.latency)
					sp.FirstSolution = s.start.Add(s.ttfs)
					sp.Rows = int64(s.rows)
					d.fed.rec.add(sp)
				}
				res.samples = append(res.samples, s)
				if msg != "" {
					fail(personLine(q.text), msg)
				}
			}
		}(c)
	}
	wg.Wait()
	out := passResult{elapsed: time.Since(start)}
	for _, r := range results {
		out.samples = append(out.samples, r.samples...)
		out.writes = append(out.writes, r.writes...)
		if out.firstFailure == "" {
			out.firstFailure = r.failure
		}
	}
	return out
}

// personLine identifies a query in a failure message by the line that
// names its person (the queries differ only there).
func personLine(text string) string {
	lines := strings.Split(text, "\n")
	for _, l := range lines {
		if strings.Contains(l, "person-") {
			return strings.TrimSpace(l)
		}
	}
	return strings.TrimSpace(lines[len(lines)-1])
}
