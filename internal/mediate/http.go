package mediate

import (
	"encoding/json"
	"errors"
	"html/template"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"

	"sparqlrw/internal/align"
	"sparqlrw/internal/endpoint"
	"sparqlrw/internal/ntriples"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/srjson"
	"sparqlrw/internal/turtle"
)

// REST API (the paper's Figure 5 "REST API" tier) plus a minimal HTML page
// standing in for the GWT UI of Figure 4. Query execution is served by a
// W3C SPARQL 1.1 Protocol endpoint at /sparql; the /api/* routes carry the
// mediator-specific operations the protocol does not model (rewrite
// preview, plan explain, stats, data set listing).

// apiQueryRequest is the body of /api/rewrite and /api/plan.
type apiQueryRequest struct {
	Query   string   `json:"query"`
	Source  string   `json:"source,omitempty"`  // narrows the alignments to this source ontology (/api/rewrite)
	Target  string   `json:"target"`            // target data set URI (/api/rewrite)
	Targets []string `json:"targets,omitempty"` // the data sets to plan over, as /sparql's target (/api/plan)
}

type rewriteResponse struct {
	Query          string   `json:"query"`
	Target         string   `json:"target"`
	AlignmentsUsed int      `json:"alignmentsUsed"`
	Warnings       []string `json:"warnings,omitempty"`
	FreshVars      []string `json:"freshVars,omitempty"`
}

type perDatasetJSON struct {
	Dataset   string  `json:"dataset"`
	Shard     int     `json:"shard,omitempty"`
	Shards    int     `json:"shards,omitempty"`
	Solutions int     `json:"solutions"`
	Attempts  int     `json:"attempts,omitempty"`
	LatencyMS float64 `json:"latencyMs,omitempty"`
	TTFSMS    float64 `json:"ttfsMs,omitempty"`
	Error     string  `json:"error,omitempty"`
}

func perDatasetView(fr *FederatedResult) []perDatasetJSON {
	out := make([]perDatasetJSON, 0, len(fr.PerDataset))
	for _, da := range fr.PerDataset {
		pj := perDatasetJSON{Dataset: da.Dataset, Solutions: da.Solutions,
			Shard: da.Shard, Shards: da.Shards,
			Attempts:  da.Attempts,
			LatencyMS: float64(da.Latency.Microseconds()) / 1000,
			TTFSMS:    float64(da.TTFS.Microseconds()) / 1000}
		if da.Err != nil {
			pj.Error = da.Err.Error()
		}
		out = append(out, pj)
	}
	return out
}

// tracePage is the paginated list envelope of /api/trace, over the ring
// or the flight recorder: trace documents, newest first, plus the total
// so clients can iterate with ?offset without guessing when to stop.
type tracePage struct {
	Total  int               `json:"total"`
	Offset int               `json:"offset"`
	Traces []json.RawMessage `json:"traces"`
}

// Media types the /sparql endpoint can produce.
const (
	ctSRJ      = "application/sparql-results+json"
	ctJSON     = "application/json"
	ctNDJSON   = "application/x-ndjson"
	ctSSE      = "text/event-stream"
	ctNTriples = "application/n-triples"
	ctTurtle   = "text/turtle"
)

// bindingsOffered / graphOffered are the content-negotiation menus per
// result category (first entry is the default for absent/wildcard
// Accept). application/json is a friendliness alias for the SRJ document.
var (
	bindingsOffered = []string{ctSRJ, ctJSON, ctNDJSON, ctSSE}
	graphOffered    = []string{ctNTriples, ctTurtle}
)

// negotiate picks the best offered media type for an Accept header: each
// offered type takes the q-value of its most specific matching range
// (exact beats type/* beats */*, per RFC 9110 §12.5.1 — so an explicit
// `foo/bar;q=0` excludes foo/bar even under a `*/*` wildcard), the
// highest q wins, and ties go to the earlier offered entry. ok is false
// when nothing offered is acceptable (a 406).
func negotiate(accept string, offered []string) (string, bool) {
	if strings.TrimSpace(accept) == "" {
		return offered[0], true
	}
	type mediaRange struct {
		typ string
		q   float64
	}
	var ranges []mediaRange
	for _, part := range strings.Split(accept, ",") {
		fields := strings.Split(part, ";")
		typ := strings.ToLower(strings.TrimSpace(fields[0]))
		if typ == "" {
			continue
		}
		q := 1.0
		for _, p := range fields[1:] {
			if v, ok := strings.CutPrefix(strings.TrimSpace(p), "q="); ok {
				if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
					q = f
				}
			}
		}
		ranges = append(ranges, mediaRange{typ: typ, q: q})
	}
	specificity := func(r, off, major string) int {
		switch r {
		case off:
			return 2
		case major:
			return 1
		case "*/*":
			return 0
		}
		return -1
	}
	best, bestQ := "", 0.0
	for _, off := range offered {
		major := off[:strings.Index(off, "/")+1] + "*"
		bestSpec, q := -1, 0.0
		for _, r := range ranges {
			if spec := specificity(r.typ, off, major); spec > bestSpec {
				bestSpec, q = spec, r.q
			} else if spec == bestSpec && spec >= 0 && r.q > q {
				q = r.q
			}
		}
		if bestSpec >= 0 && q > bestQ {
			best, bestQ = off, q
		}
	}
	return best, bestQ > 0
}

// writeJSON answers with v as a JSON document.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", ctJSON)
	_ = json.NewEncoder(w).Encode(v)
}

// optionalInt is strconv.Atoi for an optional parameter, ok when v is a
// number. An absent one is (0, false) at no cost, where strconv.Atoi("")
// allocates its error.
func optionalInt(v string) (n int, ok bool) {
	if v == "" {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	return n, err == nil
}

// protocolError writes the endpoint's JSON error document.
func protocolError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", ctJSON)
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// apiQuery reads the request of /api/rewrite or /api/plan: the body,
// capped as /sparql caps its own, decoded, and its query parsed — once;
// the handlers pass the parsed query on. On !ok the error response has
// been written.
func (m *Mediator) apiQuery(w http.ResponseWriter, r *http.Request) (req apiQueryRequest, q *sparql.Query, ok bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return req, nil, false
	}
	r.Body = http.MaxBytesReader(w, r.Body, endpoint.DefaultMaxRequestBody)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return req, nil, false
	}
	q, err := sparql.Parse(req.Query)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return req, nil, false
	}
	return req, q, true
}

// Handler serves the mediator's SPARQL protocol endpoint, REST API, UI,
// Prometheus-format metrics (/metrics) and trace inspection (/api/trace).
// The per-route request counter binds to the mediator's observer at
// construction; reconfiguring with WithObservability means recreating the
// handler to rebind.
func Handler(m *Mediator) http.Handler {
	mux := http.NewServeMux()
	requests := m.Obs.Registry.CounterVec("sparqlrw_http_requests_total",
		"HTTP requests served, by route.", "route")
	handle := func(route string, h http.HandlerFunc) {
		mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
			requests.With(route).Inc()
			h(w, r)
		})
	}

	handle("/sparql", func(w http.ResponseWriter, r *http.Request) {
		serveProtocol(m, w, r)
	})

	// /metrics serves the shared registry — every layer's counters,
	// gauges and histograms — in Prometheus text exposition format.
	handle("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = m.Obs.Registry.WritePrometheus(w)
	})

	// /api/trace pages the trace ring's documents, newest first, as
	// {"total", "offset", "traces"} (?limit=N caps the page, ?offset=N
	// skips past the newest N); ?recorded=1 pages the flight recorder's
	// slow and failed queries the same way, a 404 without -audit-dir.
	handle("/api/trace", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		limit, _ := optionalInt(q.Get("limit"))
		offset, _ := optionalInt(q.Get("offset"))
		page := tracePage{Offset: offset}
		if q.Get("recorded") != "" {
			if m.Obs.Recorder == nil {
				protocolError(w, http.StatusNotFound, "flight recorder disabled (start with -audit-dir)")
				return
			}
			page.Traces, page.Total = m.Obs.Recorder.Page(offset, limit)
		} else {
			var traces []*obs.Trace
			traces, page.Total = m.Obs.Ring.Page(offset, limit)
			for _, t := range traces {
				page.Traces = append(page.Traces, t.JSON())
			}
		}
		if page.Traces == nil {
			page.Traces = []json.RawMessage{}
		}
		writeJSON(w, page)
	})
	// /api/trace/{id} serves one trace document, from the ring or else
	// the flight recorder, 404 when neither holds it; ?format=text
	// renders its operator table.
	handle("/api/trace/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/api/trace/")
		var doc json.RawMessage
		if t := m.Obs.Ring.Get(id); t != nil {
			doc = t.JSON()
		} else if rec, ok := m.Obs.Recorder.Find(id); ok {
			doc = rec
		} else {
			protocolError(w, http.StatusNotFound, "no such trace (evicted or never recorded): "+id)
			return
		}
		if r.URL.Query().Get("format") == "text" {
			var v obs.TraceJSON
			if err := json.Unmarshal(doc, &v); err != nil {
				protocolError(w, http.StatusInternalServerError, err.Error())
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = io.WriteString(w, v.Text())
			return
		}
		w.Header().Set("Content-Type", ctJSON)
		_, _ = w.Write(doc)
	})

	handle("/api/datasets", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, m.DatasetInfos())
	})

	// /api/views renders Stats().Views: the materialized-view tier's
	// hit/miss/refresh counters plus every view's covered shape, source
	// data sets, freshness state and row count. 404 when
	// the tier is disabled.
	handle("/api/views", func(w http.ResponseWriter, r *http.Request) {
		vs := m.Stats().Views
		if vs == nil {
			protocolError(w, http.StatusNotFound, "materialized views disabled (start with -views)")
			return
		}
		writeJSON(w, vs)
	})

	// POST /api/alignments loads ontology alignments (Turtle, the §3.1
	// alignment vocabulary) into the running mediator's alignment KB. The
	// KB's subscribers fire synchronously before the response: rewrite
	// plans flush, cached results flush, and every materialized view is
	// marked stale — so no later query can be answered from pre-update
	// state.
	handle("/api/alignments", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, endpoint.DefaultMaxRequestBody)
		body, err := io.ReadAll(r.Body)
		if err != nil {
			protocolError(w, http.StatusBadRequest, "cannot read body: "+err.Error())
			return
		}
		oas, _, err := align.ParseTurtle(string(body))
		if err != nil {
			protocolError(w, http.StatusBadRequest, "cannot parse alignments: "+err.Error())
			return
		}
		if len(oas) == 0 {
			protocolError(w, http.StatusBadRequest, "no ontology alignments in body")
			return
		}
		added := 0
		for _, oa := range oas {
			if err := m.Alignments.Add(oa); err != nil {
				protocolError(w, http.StatusBadRequest, err.Error())
				return
			}
			added++
		}
		writeJSON(w, map[string]int{"added": added})
	})

	handle("/api/rewrite", func(w http.ResponseWriter, r *http.Request) {
		req, q, ok := m.apiQuery(w, r)
		if !ok {
			return
		}
		rr, err := m.rewriteResult(q, req.Source, req.Target)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, rewriteResponse{
			Query:          rr.Query,
			Target:         rr.Target,
			AlignmentsUsed: rr.AlignmentsUsed,
			Warnings:       rr.Report.Warnings,
			FreshVars:      rr.Report.FreshVars,
		})
	})

	// /api/plan explains a federated query without running it: the plan
	// the query path runs for the anonymous tenant, over the named targets'
	// source set as /sparql builds it, with its per-data-set decisions.
	handle("/api/plan", func(w http.ResponseWriter, r *http.Request) {
		req, q, ok := m.apiQuery(w, r)
		if !ok {
			return
		}
		src, _, err := m.sourceSet(nil, req.Targets)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ex, err := m.route(r.Context(), q, QueryRequest{sources: src})
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, ex)
	})

	// /api/stats serves the mediator's one introspection document, Stats,
	// in which each endpoint is one row of federation.endpoints.
	handle("/api/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, m.Stats())
	})

	// /api/health renders the document's endpoint rows: EWMA-smoothed
	// latency quantiles, error rate, breaker state, a composite score in
	// [0,1] and the endpoint's counts.
	handle("/api/health", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, m.Stats().Federation.Endpoints)
	})

	handle("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_ = uiTemplate.Execute(w, m.DatasetInfos())
	})

	return mux
}

// serveProtocol implements the W3C SPARQL 1.1 Protocol query operation:
//
//	GET  /sparql?query=...
//	POST /sparql  application/x-www-form-urlencoded   query=...
//	POST /sparql  application/sparql-query            <body is the query>
//
// Content negotiation on Accept selects the response serialisation:
// SELECT/ASK results serve SPARQL-results-JSON (default), NDJSON (one
// binding object per line) or Server-Sent Events (one binding per event,
// terminal summary/error event); CONSTRUCT/DESCRIBE graphs serve
// N-Triples (default) or Turtle, both streamed triple by triple. An
// unservable Accept yields 406 and a malformed query 400, each with a
// JSON error document. Closing the connection mid-stream cancels every
// in-flight upstream sub-query.
//
// Two protocol extensions carry the mediator-specific inputs: repeated
// `target` parameters narrow the data sets the voiD-driven planner selects
// from (default: every registered one the tenant may read; an unregistered
// target is a 400 before any round trip, one off the tenant's allowlist a
// 403), and `explain=trace` appends the query's trace document — its
// span tree, whose operator spans carry estimated vs actual cardinalities
// and q-error, and its plan — to the response: a trailing "trace" member in the SRJ document, a final
// {"trace":...} line in NDJSON, a terminal `trace` event over SSE, a
// `# trace: {...}` comment in graph serialisations. Any other explain
// value is a 400.
// Every response — error responses included — carries the query's trace
// ID in X-Trace-Id, resolvable at /api/trace/{id} while the trace ring
// retains it. Requests bearing a W3C `traceparent` header join the
// caller's trace: the same trace id flows through every outbound
// sub-query (and to the OTLP exporter, when configured), with the
// caller's span as the query span's remote parent; `tracestate` is
// propagated unmodified.
func serveProtocol(m *Mediator, w http.ResponseWriter, r *http.Request) {
	// Inbound W3C Trace Context: adopt the caller's traceparent — the
	// query's trace continues the caller's trace id, with the caller's
	// span as remote parent — or mint a fresh trace id. The id surfaces
	// as X-Trace-Id before any error path, so 400 and 406 responses are
	// correlatable too.
	tc, fromCaller := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if !fromCaller {
		tc = obs.TraceContext{TraceID: obs.NewTraceID(), Sampled: true}
	}
	tc.State = r.Header.Get("tracestate")
	ctx := obs.WithRemoteParent(r.Context(), tc)
	w.Header().Set("X-Trace-Id", tc.TraceID)

	// Serving-tier admission: identify the tenant from its credential
	// headers and run the rate/concurrency checks before any parsing or
	// planning work. Rejections reuse the endpoint's JSON error document
	// (the same shape as 400/406) plus a Retry-After hint, with
	// X-Trace-Id already set above so shed requests stay correlatable.
	var tenant *serve.Tenant
	if m.Serve != nil {
		tenant = m.Serve.Tenants.Identify(r)
		release, rej := m.Serve.Admission.Admit(ctx, tenant)
		if rej != nil {
			w.Header().Set("Retry-After", rej.RetryAfterSeconds())
			protocolError(w, rej.Status, rej.Error())
			return
		}
		defer release()
	}

	var queryText string
	var targets []string
	limit := 0
	explain := ""
	readOpts := func(get func(string) string, all func(string) []string) {
		targets = all("target")
		if n, ok := optionalInt(get("limit")); ok && n > 0 {
			limit = n
		}
		explain = get("explain")
	}
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		queryText = q.Get("query")
		readOpts(q.Get, func(k string) []string { return q[k] })
	case http.MethodPost:
		r.Body = http.MaxBytesReader(w, r.Body, endpoint.DefaultMaxRequestBody)
		ct := r.Header.Get("Content-Type")
		if strings.HasPrefix(ct, "application/sparql-query") {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				protocolError(w, http.StatusBadRequest, "cannot read body: "+err.Error())
				return
			}
			queryText = string(body)
			q := r.URL.Query()
			readOpts(q.Get, func(k string) []string { return q[k] })
		} else {
			if err := r.ParseForm(); err != nil {
				protocolError(w, http.StatusBadRequest, "cannot parse form: "+err.Error())
				return
			}
			queryText = r.Form.Get("query")
			readOpts(r.Form.Get, func(k string) []string { return r.Form[k] })
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		protocolError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	if explain != "" && explain != "trace" {
		protocolError(w, http.StatusBadRequest, "unknown explain mode "+strconv.Quote(explain)+": explain takes only trace")
		return
	}
	if strings.TrimSpace(queryText) == "" {
		protocolError(w, http.StatusBadRequest, "missing query parameter")
		return
	}
	req := QueryRequest{Query: queryText, Targets: targets, Limit: limit, Tenant: tenant}

	// A repeated request is a lookup: the result cache answers a text it
	// has bound before any parse. Only SELECT and ASK answers are cached,
	// and both negotiate among the bindings serialisations, so a request
	// none of those suits skips the lookup; past the parse it meets the
	// same 406 as any SELECT or ASK, or is a graph form.
	accept := r.Header.Get("Accept")
	ctype, acceptable := negotiate(accept, bindingsOffered)
	var res *Result
	if acceptable {
		res = m.replayByText(ctx, req)
	}
	if res == nil {
		q, err := sparql.Parse(queryText)
		if err != nil {
			protocolError(w, http.StatusBadRequest, err.Error())
			return
		}
		offered := bindingsOffered
		if q.Form == sparql.Construct || q.Form == sparql.Describe {
			offered = graphOffered
			ctype, acceptable = negotiate(accept, offered)
		}
		if !acceptable {
			protocolError(w, http.StatusNotAcceptable,
				"no acceptable representation for "+q.Form.String()+" results; offered: "+strings.Join(offered, ", "))
			return
		}
		if res, err = m.queryParsed(ctx, req, q); err != nil {
			// The request itself was bad: unsupported form, no relevant data
			// set, fail-fast abort before any result. Upstream failures past
			// this point arrive mid-stream. Tenant-policy refusals map to 403.
			status := http.StatusBadRequest
			if errors.Is(err, serve.ErrDenied) {
				status = http.StatusForbidden
			}
			protocolError(w, status, err.Error())
			return
		}
	}
	defer res.Close()

	if t := res.Trace(); t != nil && m.Obs.Log.Enabled(ctx, slog.LevelDebug) {
		m.Obs.Log.Debug("query accepted",
			"traceId", t.ID(),
			"form", res.Form().String(),
			"accept", ctype,
			"targets", len(targets))
	}

	traced := explain != ""
	switch res.Form() {
	case sparql.Select:
		serveBindings(w, res, ctype, traced)
	case sparql.Ask:
		serveBoolean(w, res, ctype, traced)
	default:
		serveGraph(w, res, ctype, traced)
	}
}

// traceTrailer finishes the query's trace (idempotent — execution is
// done once the stream drains; serialisation time is not part of the
// query) and returns its document, plan included, for the explain=trace
// trailer; nil when explain is off or the query ran untraced.
func traceTrailer(res *Result, explain bool) json.RawMessage {
	t := res.Trace()
	if !explain || t == nil {
		return nil
	}
	t.Finish()
	doc := t.View()
	if res.dec != nil {
		doc.Plan = res.dec
	}
	data, err := json.Marshal(doc)
	if err != nil {
		data, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	return data
}

// serveBindings streams a SELECT result in the negotiated serialisation.
func serveBindings(w http.ResponseWriter, res *Result, ctype string, explain bool) {
	qs := res.Bindings()
	switch ctype {
	case ctNDJSON:
		serveNDJSON(w, res, explain)
	case ctSSE:
		serveSSE(w, res, explain)
	default: // SRJ (and its application/json alias)
		w.Header().Set("Content-Type", ctype)
		// A mid-stream failure can no longer change the status line;
		// aborting leaves truncated JSON, which streaming clients report.
		enc, err := srjson.NewStreamEncoder(w, qs.Vars())
		if err != nil {
			return
		}
		flush := endpoint.BatchFlusher(w)
		for {
			row, err := qs.Next()
			if err == io.EOF {
				break
			}
			if err != nil || enc.EncodeRow(row) != nil {
				return
			}
			flush()
		}
		_ = enc.CloseWith("trace", traceTrailer(res, explain))
	}
}

// serveBoolean writes an ASK result.
func serveBoolean(w http.ResponseWriter, res *Result, ctype string, explain bool) {
	switch ctype {
	case ctNDJSON:
		w.Header().Set("Content-Type", ctNDJSON)
		line, _ := json.Marshal(map[string]bool{"boolean": res.Bool()})
		_, _ = w.Write(append(line, '\n'))
		if payload := traceTrailer(res, explain); payload != nil {
			trailer := append([]byte(`{"trace":`), payload...)
			_, _ = w.Write(append(trailer, '}', '\n'))
		}
	case ctSSE:
		sse := newSSEWriter(w)
		_ = sse.event("boolean", map[string]bool{"boolean": res.Bool()})
		fr, err := res.Summary()
		writeSSESummary(sse, fr, err)
		if payload := traceTrailer(res, explain); payload != nil {
			_ = sse.event("trace", payload)
		}
	default:
		data, err := srjson.EncodeAsk(res.Bool())
		if err != nil {
			protocolError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if payload := traceTrailer(res, explain); payload != nil {
			// Splice the trailer in before the document's closing brace:
			// an unknown top-level member W3C consumers skip.
			data = append(data[:len(data)-1], `,"trace":`...)
			data = append(append(data, payload...), '}')
		}
		w.Header().Set("Content-Type", ctype)
		_, _ = w.Write(data)
	}
}

// serveGraph streams a CONSTRUCT/DESCRIBE triple stream as N-Triples or
// Turtle, one triple per line, flushed incrementally. A failure
// mid-stream terminates the document with a comment line (legal in both
// syntaxes), since the status line is long gone.
func serveGraph(w http.ResponseWriter, res *Result, ctype string, explain bool) {
	gs := res.Graph()
	w.Header().Set("Content-Type", ctype)
	flush := endpoint.BatchFlusher(w)
	var write func(t rdf.Triple) error
	if ctype == ctTurtle {
		sw := turtle.NewStreamWriter(w, gs.Prefixes())
		write = sw.WriteTriple
	} else {
		write = func(t rdf.Triple) error {
			_, err := io.WriteString(w, ntriples.FormatTriple(t)+"\n")
			return err
		}
	}
	var streamErr error
	for t, err := range gs.Triples() {
		if err != nil {
			streamErr = err
			break
		}
		if werr := write(t); werr != nil {
			return // client gone; the deferred Close cancels upstream
		}
		flush()
	}
	if streamErr == nil {
		_, streamErr = gs.Summary()
	}
	if streamErr != nil {
		_, _ = io.WriteString(w, "# error: "+strings.ReplaceAll(streamErr.Error(), "\n", " ")+"\n")
	}
	if payload := traceTrailer(res, explain); payload != nil {
		// json.Marshal output never contains raw newlines, so the
		// trailer stays one comment line (legal in both syntaxes).
		_, _ = io.WriteString(w, "# trace: "+string(payload)+"\n")
	}
	if flusher, ok := w.(http.Flusher); ok {
		flusher.Flush()
	}
}

// serveNDJSON streams a query's solutions as NDJSON: one W3C-style
// binding object per line (variables as keys, terms as
// {type,value,...} objects), flushed incrementally for browser and CLI
// consumers — `curl -N -H 'Accept: application/x-ndjson' ... | jq` works
// line by line. The stream carries solutions only; a failure mid-stream
// terminates it with a final {"error": "..."} line (distinguishable from
// a binding, whose values are objects). Consumers wanting the
// per-dataset summary use the SSE serialisation instead.
func serveNDJSON(w http.ResponseWriter, res *Result, explain bool) {
	qs := res.Bindings()
	w.Header().Set("Content-Type", ctNDJSON)
	flush := endpoint.BatchFlusher(w)
	writeLine := func(line []byte) bool {
		_, err := w.Write(append(line, '\n'))
		return err == nil
	}
	var (
		streamErr error
		line      []byte // reused for every row
	)
	for {
		row, err := qs.Next()
		if err == io.EOF {
			break
		}
		if err == nil {
			line, err = srjson.AppendRow(line[:0], qs.Vars(), row)
		}
		if err != nil {
			streamErr = err
			break
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return // client gone; the deferred Close cancels upstream
		}
		flush()
	}
	if streamErr == nil {
		// A fan-out failure can also surface only in the summary.
		_, streamErr = qs.Summary()
	}
	if streamErr != nil {
		if line, err := json.Marshal(map[string]string{"error": streamErr.Error()}); err == nil {
			writeLine(line)
		}
	}
	if payload := traceTrailer(res, explain); payload != nil {
		// Distinguishable from a binding line: its one value is the
		// trailer object, not a {type,value} term.
		writeLine(append(append([]byte(`{"trace":`), payload...), '}'))
	}
	if flusher, ok := w.(http.Flusher); ok {
		flusher.Flush()
	}
}

// sseWriter emits Server-Sent Events, flushing each event so consumers
// see bindings the moment endpoints deliver them.
type sseWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
}

func newSSEWriter(w http.ResponseWriter) *sseWriter {
	w.Header().Set("Content-Type", ctSSE)
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	return &sseWriter{w: w, flusher: flusher}
}

func (s *sseWriter) event(name string, payload any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	return s.write([]byte("event: " + name + "\ndata: " + string(data) + "\n\n"))
}

// write sends one complete event frame and flushes it.
func (s *sseWriter) write(frame []byte) error {
	if _, err := s.w.Write(frame); err != nil {
		return err
	}
	if s.flusher != nil {
		s.flusher.Flush()
	}
	return nil
}

// sseSummary is the terminal summary event's payload.
type sseSummary struct {
	Solutions  int              `json:"solutions"`
	Duplicates int              `json:"duplicates"`
	Partial    bool             `json:"partial,omitempty"`
	PerDataset []perDatasetJSON `json:"perDataset"`
}

func writeSSESummary(sse *sseWriter, fr *FederatedResult, err error) {
	if err != nil {
		_ = sse.event("error", map[string]string{"error": err.Error()})
		return
	}
	sum := sseSummary{Duplicates: fr.Duplicates, Partial: fr.Partial,
		PerDataset: perDatasetView(fr)}
	for _, da := range fr.PerDataset {
		sum.Solutions += da.Solutions
	}
	_ = sse.event("summary", sum)
}

// serveSSE streams a SELECT over Server-Sent Events: one `binding` event
// per solution (the W3C binding-object shape NDJSON uses), then a
// terminal `summary` event with the per-dataset outcomes — or an `error`
// event when the fan-out aborted. Closing the EventSource cancels the
// upstream sub-queries.
func serveSSE(w http.ResponseWriter, res *Result, explain bool) {
	qs := res.Bindings()
	sse := newSSEWriter(w)
	const bindingEvent = "event: binding\ndata: "
	var streamErr error
	frame := []byte(bindingEvent) // reused for every row
	for {
		row, err := qs.Next()
		if err == io.EOF {
			break
		}
		if err == nil {
			frame, err = srjson.AppendRow(frame[:len(bindingEvent)], qs.Vars(), row)
		}
		if err != nil {
			streamErr = err
			break
		}
		frame = append(frame, '\n', '\n')
		if err := sse.write(frame); err != nil {
			return // client gone; the deferred Close cancels upstream
		}
	}
	fr, sumErr := qs.Summary()
	if streamErr == nil {
		streamErr = sumErr
	}
	if streamErr != nil {
		_ = sse.event("error", map[string]string{"error": streamErr.Error()})
	} else {
		writeSSESummary(sse, fr, nil)
	}
	if payload := traceTrailer(res, explain); payload != nil {
		_ = sse.event("trace", payload)
	}
}

// uiTemplate is the Figure-4 stand-in: source query on top, data set
// selector, translated query below.
var uiTemplate = template.Must(template.New("ui").Parse(`<!DOCTYPE html>
<html>
<head><title>SPARQL Query Rewriter</title>
<style>
 body { font-family: sans-serif; margin: 2em; max-width: 60em; }
 textarea { width: 100%; font-family: monospace; }
 select, button { margin: 0.5em 0; }
</style></head>
<body>
<h1>SPARQL Query Rewriter</h1>
<p>Write a source query, pick the target data set, and translate
   (Correndo et al., EDBT 2010).</p>
<textarea id="src" rows="10">PREFIX akt:&lt;http://www.aktors.org/ontology/portal#&gt;
SELECT DISTINCT ?a WHERE {
  ?paper akt:has-author &lt;http://southampton.rkbexplorer.com/id/person-00001&gt; .
  ?paper akt:has-author ?a .
}</textarea><br>
<select id="target">
{{range .}}<option value="{{.URI}}">{{.Title}} ({{.URI}})</option>
{{end}}</select>
<button onclick="rewrite()">Translate</button>
<button onclick="runQuery()">Translate &amp; Run</button>
<h2>Translated query / results</h2>
<textarea id="dst" rows="14" readonly></textarea>
<script>
async function rewrite() {
  const res = await fetch('/api/rewrite', {method: 'POST',
    body: JSON.stringify({query: document.getElementById('src').value,
                          target: document.getElementById('target').value})});
  const text = await res.text();
  try {
    const data = JSON.parse(text);
    document.getElementById('dst').value = data.query +
      (data.warnings ? '\n# warnings:\n# ' + data.warnings.join('\n# ') : '');
  } catch (e) { document.getElementById('dst').value = text; }
}
async function runQuery() {
  const params = new URLSearchParams();
  params.set('query', document.getElementById('src').value);
  params.append('target', document.getElementById('target').value);
  const res = await fetch('/sparql', {method: 'POST',
    headers: {'Content-Type': 'application/x-www-form-urlencoded'},
    body: params.toString()});
  document.getElementById('dst').value = await res.text();
}
</script>
</body></html>`))
