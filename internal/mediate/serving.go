package mediate

// The mediator side of the serving tier (internal/serve): the federated
// result cache's lookup/fill plumbing around the streaming query path.

import (
	"context"
	"errors"
	"maps"
	"slices"
	"strconv"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/sparql"
)

// cacheFill is one request's result-cache participation past the parse:
// its canonicalised key, its text key and the invalidation epoch
// snapshotted before the lookup, so an answer computed against
// pre-invalidation KB state is never cached, nor a text key bound to one
// (the version checks in ResultCache.Put and Bind).
type cacheFill struct {
	cache   *serve.ResultCache
	key     string
	tenant  *serve.Tenant // with text, the text key
	text    string
	shown   string // the restricted query a hit by text shows; "" for the text
	version uint64
}

// cacheFill returns the request's cache handle, or nil when the request
// is not cacheable: the tier or cache is disabled, or the form is not
// SELECT/ASK (CONSTRUCT and DESCRIBE stream graphs whose instantiation
// is cheap relative to their transfer, and DESCRIBE's two-phase fan-out
// resolves resources dynamically). Either way the trace says why. shown
// is the text of q when the tenant's policy rewrote it, else "".
func (m *Mediator) cacheFill(req QueryRequest, q *sparql.Query, shown string, qo *queryObs) *cacheFill {
	c := m.resultCache()
	switch {
	case c == nil:
		qo.cacheDecision("bypass", "off")
		return nil
	case q.Form != sparql.Select && q.Form != sparql.Ask:
		qo.cacheDecision("bypass", "form")
		return nil
	}
	var buf [1024]byte
	return &cacheFill{
		cache:   c,
		version: c.Version(),
		key:     m.resultCacheKey(req, q),
		tenant:  req.Tenant,
		text:    string(appendTextKey(buf[:0], req)),
		shown:   shown,
	}
}

// resultCache is the serving tier's result cache, nil when it is off.
func (m *Mediator) resultCache() *serve.ResultCache {
	if m.Serve == nil {
		return nil
	}
	return m.Serve.Cache
}

// lookup serves the request from the cache by its canonical key if it
// can, binding its text key to the answer it hit, and returns the
// replayed Result (with zero endpoint round trips) or nil on a miss.
func (f *cacheFill) lookup(req QueryRequest, qo *queryObs) *Result {
	if f == nil {
		return nil
	}
	e, ok := f.cache.Get(f.key)
	if !ok {
		qo.cacheDecision("miss", "")
		return nil
	}
	f.cache.Bind(f.tenant, f.text, e, f.shown, f.version)
	qo.cacheDecision("hit", "key")
	return replay(e, req, qo)
}

// store puts a complete answer under the request's canonical key and
// binds its text key to it.
func (f *cacheFill) store(e *serve.Entry) {
	e.Key = f.key
	if f.cache.Put(e, f.version) {
		f.cache.Bind(f.tenant, f.text, e, f.shown, f.version)
	}
}

// attach arms the fill on a freshly started Result: a SELECT's rows are
// kept as they stream and stored once they run to their end (see
// fillRows); an ASK (already materialised) is stored immediately.
func (f *cacheFill) attach(res *Result) {
	if f == nil {
		return
	}
	switch {
	case res.sel != nil:
		f.fillRows(res.sel)
	case res.form == sparql.Ask:
		if storable(res.askSum) {
			f.store(&serve.Entry{IsAsk: true, Ask: res.ask, Summary: trimSummary(res.askSum)})
		}
	}
}

// replayByText answers a request from the result cache by its text key
// alone, before any parse: no policy restriction, no source set, no
// canonical key. The form, SELECT or ASK, is the entry's. It returns nil
// when the cache is off or the text key is bound to no live answer; the
// request then takes the parsed path, which binds its text key on a hit
// or fill under the canonical key.
func (m *Mediator) replayByText(ctx context.Context, req QueryRequest) *Result {
	c := m.resultCache()
	if c == nil {
		return nil
	}
	var buf [1024]byte
	e, shown, ok := c.GetText(req.Tenant, appendTextKey(buf[:0], req))
	if !ok {
		return nil
	}
	form := sparql.Select
	if e.IsAsk {
		form = sparql.Ask
	}
	_, qo := m.beginQuery(ctx, form)
	if shown == "" {
		shown = req.Query
	}
	qo.setQuery(shown)
	qo.cacheDecision("hit", "text")
	return replay(e, req, qo)
}

// replay is the Result of a result-cache hit: the entry's rows as a
// stream (under the request's limit) — views into the entry's buffer,
// shared by every hit and read-only like any stream's rows, with a fresh
// trimmed summary — or its ASK outcome.
func replay(e *serve.Entry, req QueryRequest, qo *queryObs) *Result {
	res := &Result{form: sparql.Select, qo: qo}
	if e.IsAsk {
		res.form, res.ask, res.askSum = sparql.Ask, e.Ask, copySummary(e)
	} else {
		rows := func(yield func(eval.Row, error) bool) {
			for i := range e.Rows.N {
				if !yield(e.Rows.Row(i), nil) {
					return
				}
			}
		}
		res.sel = &QueryStream{vars: e.Vars, rows: rows, summary: cachedSummary{e}, limit: req.Limit, qo: qo}
	}
	return res
}

// appendTextKey appends the text of the request's text key to buf: its
// limit, its targets as sent, each length-prefixed, and its query text,
// so no two requests share one. With the request's tenant (the *Tenant,
// so its policy) it decides the canonical key within one invalidation
// epoch: the same text restricts, selects sources and canonicalises
// alike.
func appendTextKey(buf []byte, req QueryRequest) []byte {
	buf = strconv.AppendInt(buf, int64(req.Limit), 10)
	for _, target := range req.Targets {
		buf = append(strconv.AppendInt(append(buf, 'g'), int64(len(target)), 10), ':')
		buf = append(buf, target...)
	}
	return append(append(buf, 'q'), req.Query...)
}

// resultCacheKey fingerprints the request for the result cache. Ground
// IRIs in the query's basic graph patterns and VALUES blocks are keyed as
// their owl:sameAs representative — the same rule the federation merge
// and the graph streams use — so alias spellings of one entity share an
// entry. The limit and the request's source set (the tenant's allowlist
// narrowed to the named targets) both discriminate; the tenant's algebra
// restrictions need no extra component because q is the restricted query
// by the time it is keyed. The key is written straight from q, which it
// neither clones nor formats.
func (m *Mediator) resultCacheKey(req QueryRequest, q *sparql.Query) string {
	var buf [1024]byte
	key := sparql.AppendKey(buf[:0], q, m.Coref.Term)
	key = strconv.AppendInt(append(key, 0), int64(req.Limit), 10)
	if req.sources != nil {
		key = append(key, "\x00sources:"...)
		for _, uri := range slices.Sorted(maps.Keys(req.sources)) {
			key = append(append(key, 0), uri...)
		}
	}
	return string(key)
}

// storable reports whether a fan-out summary describes a complete,
// fully successful answer — the only kind worth caching (a partial
// answer cached once would keep masking the datasets that failed). A
// sub-query abandoned once the query's own LIMIT was met failed nothing.
func storable(sum *federate.Result) bool {
	if sum == nil || sum.Partial {
		return false
	}
	for _, da := range sum.PerDataset {
		if da.Err != nil && !errors.Is(da.Err, federate.ErrStreamClosed) {
			return false
		}
	}
	return true
}

// trimSummary copies a summary for storage, dropping the (already
// streamed) solutions.
func trimSummary(sum *federate.Result) *federate.Result {
	out := *sum
	out.Solutions = nil
	out.PerDataset = append([]federate.DatasetAnswer(nil), sum.PerDataset...)
	return &out
}

// cachedSummary is a cache entry as the summarizer of a hit's stream (one
// pointer, which an interface holds without an allocation).
type cachedSummary struct{ e *serve.Entry }

func (c cachedSummary) Summary() (*federate.Result, error) { return copySummary(c.e), nil }

// copySummary returns a fresh summary for one cache hit, so consumers
// mutating the result cannot corrupt the shared entry.
func copySummary(e *serve.Entry) *federate.Result {
	if e.Summary == nil {
		return &federate.Result{Vars: e.Vars}
	}
	return trimSummary(e.Summary)
}

// fillRows has qs keep a copy of every row it streams — back to back in
// one buffer, the strings cut from the fill's own arena so the entry does
// not pin the decoders' chunks — and store the entry once its rows have
// run to their end with every data set successful. Rows cut short (by the
// request's limit, a break or an error) and oversized results never
// store; neither does a run whose invalidation epoch moved (Put's
// version check).
func (f *cacheFill) fillRows(qs *QueryStream) {
	rows := qs.rows
	qs.rows = func(yield func(eval.Row, error) bool) {
		kept := eval.RowBuf{Width: len(qs.vars)}
		var arena rdf.Arena
		overflow := false
		for row, err := range rows {
			if err != nil {
				yield(nil, err)
				return
			}
			switch {
			case overflow:
			case kept.N >= eval.MaxHeldRows:
				overflow, kept = true, eval.RowBuf{}
			default:
				kept.AppendCompact(&arena, row)
			}
			if !yield(row, nil) {
				return
			}
		}
		if sum, err := qs.summary.Summary(); err == nil && !overflow && storable(sum) {
			f.store(&serve.Entry{Vars: slices.Clone(qs.vars), Rows: kept, Summary: trimSummary(sum)})
		}
	}
}
