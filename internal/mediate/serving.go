package mediate

// The mediator side of the serving tier (internal/serve): the federated
// result cache's lookup/fill plumbing around the streaming query path.

import (
	"errors"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/sparql"
)

// cacheFill is one request's result-cache participation: its
// canonicalised key and the invalidation epoch snapshotted before
// execution, so an answer computed against pre-invalidation KB state is
// never cached (the version check in ResultCache.Put).
type cacheFill struct {
	cache   *serve.ResultCache
	key     string
	version uint64
}

// cacheFill returns the request's cache handle, or nil when the request
// is not cacheable: the tier or cache is disabled, or the form is not
// SELECT/ASK (CONSTRUCT and DESCRIBE stream graphs whose instantiation
// is cheap relative to their transfer, and DESCRIBE's two-phase fan-out
// resolves resources dynamically).
func (m *Mediator) cacheFill(req QueryRequest, q *sparql.Query) *cacheFill {
	if m.Serve == nil || m.Serve.Cache == nil {
		return nil
	}
	if q.Form != sparql.Select && q.Form != sparql.Ask {
		return nil
	}
	return &cacheFill{
		cache:   m.Serve.Cache,
		key:     m.resultCacheKey(req, q),
		version: m.Serve.Cache.Version(),
	}
}

// lookup serves the request from the cache if it can, returning the
// replayed Result (with zero endpoint round trips) or nil on a miss.
func (f *cacheFill) lookup(req QueryRequest, qo *queryObs) *Result {
	if f == nil {
		return nil
	}
	e, ok := f.cache.Get(f.key)
	if !ok {
		return nil
	}
	qo.trace.Root().SetString("resultCache", "hit")
	var res *Result
	if e.IsAsk {
		res = &Result{form: sparql.Ask, ask: e.Ask, askSum: copySummary(e)}
	} else {
		qs := &QueryStream{src: newCachedSource(e), limit: req.Limit, qo: qo}
		res = &Result{form: sparql.Select, sel: qs}
	}
	res.qo = qo
	return res
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
			f.cache.Put(&serve.Entry{
				Key:     f.key,
				IsAsk:   true,
				Ask:     res.ask,
				Summary: trimSummary(res.askSum),
			}, f.version)
		}
	}
}

// resultCacheKey fingerprints the request for the result cache. Ground
// IRIs in the query are canonicalised to their owl:sameAs
// representative first — the same rule the federation merge and the
// graph streams use — so alias spellings of one entity share an entry.
// The limit and the request's source set (the tenant's allowlist
// narrowed to the named targets) both discriminate; the tenant's
// algebra restrictions need no extra component because q is the
// restricted query by the time it is keyed.
func (m *Mediator) resultCacheKey(req QueryRequest, q *sparql.Query) string {
	canon := federate.NewRepCache(m.Coref)
	cq := q.Clone()
	canonicaliseGroup(cq.Where, canon)
	parts := []string{sparql.Format(cq), strconv.Itoa(req.Limit)}
	if req.sources != nil {
		parts = append(parts, "sources:")
		parts = append(parts, slices.Sorted(maps.Keys(req.sources))...)
	}
	return strings.Join(parts, "\x00")
}

// canonicaliseGroup maps every ground term in the group's basic graph
// patterns and VALUES blocks through the sameAs canonicaliser, in
// place (callers pass a clone).
func canonicaliseGroup(g *sparql.GroupGraphPattern, canon *federate.RepCache) {
	if g == nil {
		return
	}
	for _, el := range g.Elements {
		switch e := el.(type) {
		case *sparql.BGP:
			for i := range e.Patterns {
				e.Patterns[i] = canon.Triple(e.Patterns[i])
			}
		case *sparql.InlineData:
			for _, row := range e.Rows {
				for i, t := range row {
					row[i] = canon.Term(t)
				}
			}
		case *sparql.SubGroup:
			canonicaliseGroup(e.Group, canon)
		case *sparql.Optional:
			canonicaliseGroup(e.Group, canon)
		case *sparql.Union:
			for _, alt := range e.Alternatives {
				canonicaliseGroup(alt, canon)
			}
		}
	}
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
		if f.rows.N >= serve.CacheMaxRows {
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
	f.fill.cache.Put(&serve.Entry{
		Key:     f.fill.key,
		Vars:    append([]string(nil), f.src.Vars()...),
		Rows:    f.rows,
		Summary: trimSummary(sum),
	}, f.fill.version)
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
