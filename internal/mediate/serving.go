package mediate

// The mediator side of the serving tier (internal/serve): the federated
// result cache's lookup/fill plumbing around the streaming query path.

import (
	"context"
	"errors"
	"io"
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

// attach arms the fill on a freshly started Result: SELECT streams are
// wrapped so a fully consumed, fully successful run is stored on
// completion; an ASK (already materialised) is stored immediately.
func (f *cacheFill) attach(res *Result) {
	if f == nil {
		return
	}
	switch {
	case res.sel != nil:
		res.sel.src = &fillSource{fill: f, src: res.sel.src, rows: eval.RowBuf{Width: len(res.sel.src.Vars())}}
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
// stream (under the request's limit) or its ASK outcome.
func replay(e *serve.Entry, req QueryRequest, qo *queryObs) *Result {
	res := &Result{form: sparql.Select, qo: qo}
	if e.IsAsk {
		res.form, res.ask, res.askSum = sparql.Ask, e.Ask, copySummary(e)
	} else {
		res.sel = &QueryStream{src: newCachedSource(e), limit: req.Limit, qo: qo}
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
	key := sparql.AppendKey(buf[:0], q, func(t rdf.Term) rdf.Term { return federate.Rep(m.Coref, t) })
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

// copySummary returns a fresh summary for one cache hit, so consumers
// mutating the result cannot corrupt the shared entry.
func copySummary(e *serve.Entry) *federate.Result {
	if e.Summary == nil {
		return &federate.Result{Vars: e.Vars}
	}
	return trimSummary(e.Summary)
}

// fillSource wraps a SELECT's solution source, keeping a copy of every
// streamed row — back to back in one buffer, the strings cut from the
// fill's own arena so the entry does not pin the decoders' chunks — and
// storing the entry once the stream is consumed to its natural end with
// every dataset successful. Limit-cut streams (QueryStream stops calling
// Next before the upstream EOF) and oversized results never store;
// neither does a run whose invalidation epoch moved (Put's version
// check).
type fillSource struct {
	fill *cacheFill
	src  solutionSource

	rows     eval.RowBuf
	arena    rdf.Arena
	overflow bool
	done     bool
	stored   bool
}

func (f *fillSource) Vars() []string { return f.src.Vars() }

func (f *fillSource) Next() (eval.Row, error) {
	row, err := f.src.Next()
	if err == io.EOF {
		f.done = true
	}
	if err != nil {
		return nil, err
	}
	if !f.overflow {
		if f.rows.N >= eval.MaxHeldRows {
			f.overflow, f.rows = true, eval.RowBuf{}
		} else {
			f.rows.AppendCompact(&f.arena, row)
		}
	}
	return row, nil
}

func (f *fillSource) Summary() (*federate.Result, error) {
	sum, err := f.src.Summary()
	f.maybeStore(sum, err)
	return sum, err
}

func (f *fillSource) Close() error {
	if f.done && !f.stored {
		if sum, err := f.src.Summary(); err == nil {
			f.maybeStore(sum, nil)
		}
	}
	f.stored = true // a stream read past its Close ends at the Close, not at its end
	return f.src.Close()
}

func (f *fillSource) maybeStore(sum *federate.Result, err error) {
	if f.stored || !f.done || f.overflow || err != nil || !storable(sum) {
		return
	}
	f.stored = true
	f.fill.store(&serve.Entry{
		Vars:    append([]string(nil), f.src.Vars()...),
		Rows:    f.rows,
		Summary: trimSummary(sum),
	})
}

// cachedSource replays a cache entry as a solutionSource: rows handed out
// as views into the entry's buffer (shared by every hit, read-only like
// any source's rows), a fresh trimmed summary, no upstream to close.
type cachedSource struct {
	e *serve.Entry
	i int
}

func newCachedSource(e *serve.Entry) *cachedSource { return &cachedSource{e: e} }

func (c *cachedSource) Vars() []string { return c.e.Vars }

func (c *cachedSource) Next() (eval.Row, error) {
	if c.i >= c.e.Rows.N {
		return nil, io.EOF
	}
	c.i++
	return c.e.Rows.Row(c.i - 1), nil
}

func (c *cachedSource) Close() error { return nil }

func (c *cachedSource) Summary() (*federate.Result, error) {
	return copySummary(c.e), nil
}
