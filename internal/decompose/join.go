package decompose

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"time"

	"sparqlrw/internal/algebra"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/funcs"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/plan"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
)

// Dispatcher starts federated sub-query streams; *federate.Executor
// satisfies it. Fragments dispatch through the executor so they get the
// usual pipeline: cached rewrites, bounded concurrency, retries, circuit
// breakers and the owl:sameAs merge.
type Dispatcher interface {
	SelectStream(ctx context.Context, req federate.Request) *federate.Stream
}

// EngineStats counts join-engine activity for /api/stats.
type EngineStats struct {
	// Runs is how many decomposed queries were executed.
	Runs uint64 `json:"runs"`
	// BoundJoinStages and HashJoinStages count join stages by strategy.
	BoundJoinStages uint64 `json:"boundJoinStages"`
	HashJoinStages  uint64 `json:"hashJoinStages"`
	// ValuesRows is how many bindings were shipped in VALUES blocks.
	ValuesRows uint64 `json:"valuesRows"`
	// SolutionsTransferred sums the solutions endpoints returned across
	// all fragment dispatches (the figure bound joins minimise).
	SolutionsTransferred uint64 `json:"solutionsTransferred"`
}

// Engine plans decompositions for execution: each fragment becomes a leaf
// of an eval plan that dispatches through the federation executor, and
// the plan's joins, filters and modifiers run in the evaluator.
type Engine struct {
	exec    Dispatcher
	coref   funcs.CorefSource
	opts    Options
	metrics engineMetrics
}

// engineMetrics are the join engine's registry-backed counters; Stats()
// reads them back, and the shared registry renders them at /metrics.
type engineMetrics struct {
	runs            *obs.Counter
	boundJoinStages *obs.Counter
	hashJoinStages  *obs.Counter
	valuesRows      *obs.Counter
	transferred     *obs.Counter
}

// NewEngine builds a join engine over the given dispatcher. coref is the
// co-reference service used to expand bound-join bindings with their
// owl:sameAs equivalents (the executor's merge canonicalises solutions, so
// a binding's representative URI may lie outside the next endpoint's URI
// space — the expansion ships every known alias). It may be nil.
func NewEngine(exec Dispatcher, coref funcs.CorefSource, opts Options) *Engine {
	opts = opts.withDefaults()
	reg := opts.Registry
	return &Engine{
		exec: exec, coref: coref, opts: opts,
		metrics: engineMetrics{
			runs: reg.Counter("sparqlrw_decompose_runs_total",
				"Decomposed queries executed by the join engine."),
			boundJoinStages: reg.Counter("sparqlrw_decompose_bound_join_stages_total",
				"Join stages executed as bound joins (VALUES-shipped bindings)."),
			hashJoinStages: reg.Counter("sparqlrw_decompose_hash_join_stages_total",
				"Join stages executed as mediator-side hash joins."),
			valuesRows: reg.Counter("sparqlrw_decompose_values_rows_total",
				"Bindings shipped to endpoints in VALUES blocks."),
			transferred: reg.Counter("sparqlrw_decompose_solutions_transferred_total",
				"Solutions endpoints returned across all fragment dispatches."),
		},
	}
}

// Stats returns a snapshot of the engine's counters, read back from the
// metrics registry so the JSON view and /metrics cannot disagree.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Runs:                 uint64(e.metrics.runs.Value()),
		BoundJoinStages:      uint64(e.metrics.boundJoinStages.Value()),
		HashJoinStages:       uint64(e.metrics.hashJoinStages.Value()),
		ValuesRows:           uint64(e.metrics.valuesRows.Value()),
		SolutionsTransferred: uint64(e.metrics.transferred.Value()),
	}
}

// Plan is one execution of a decomposition. Op is its algebra, for
// eval.Engine.Open: the query's solution modifiers over its residual
// FILTERs over the left-deep join of its fragments, each a remote leaf
// that dispatches when the plan first pulls it. Summary reports, once the
// plan has run, what was dispatched.
type Plan struct {
	Op  algebra.Op
	sum federate.Result
}

// Plan builds the plan of one execution of d. A non-nil left operand is
// joined ahead of fragment 0, whose leaf it then seeds as any earlier
// stage seeds a later one. The residual FILTERs run over merged rows,
// which bind owl:sameAs representatives, so their IRI constants are
// canonicalised the same way.
func (e *Engine) Plan(d *Decomposition, left algebra.Op) *Plan {
	e.metrics.runs.Inc()
	p := &Plan{}
	op := left
	var canon *federate.RepCache
	for k, f := range d.Fragments {
		var leaf algebra.Op = &algebra.Remote{Vars: f.Vars,
			Source: &fragmentLeaf{e: e, d: d, f: f, stage: int64(k), plan: p}}
		if op != nil {
			leaf = &algebra.Join{L: op, R: leaf}
		}
		op = leaf
		for _, rf := range d.ResidualFilters {
			if rf.Stage == k {
				if canon == nil {
					canon = federate.NewRepCache(e.coref)
				}
				op = &algebra.Filter{Expr: sparql.MapExprTerms(rf.expr, canon.Term), Input: op}
			}
		}
	}
	mods := d.Query
	if d.Whole() != nil {
		// The merge answers a set over the wire's variables; projected onto
		// the query's, it stays one under DISTINCT.
		dq := *d.Query
		dq.Distinct, dq.Reduced = true, false
		mods = &dq
	}
	p.Op = algebra.Modifiers(mods, op)
	return p
}

// Stream starts the dispatch of a whole decomposition whose fragment's
// merged stream is the answer, with nothing to apply above the merge. It
// opens no span of its own and observes no cardinality.
func (e *Engine) Stream(ctx context.Context, d *Decomposition) *federate.Stream {
	e.metrics.runs.Inc()
	return e.exec.SelectStream(ctx, request(d, d.Whole(), nil))
}

// Summary reports the plan's dispatches in the executor's result shape:
// per-dataset answers for every fragment dispatch, in dispatch order, the
// merge's duplicates, and Partial when any sub-query failed (a failed
// fragment dispatch means join results may be incomplete). The rows carry
// a failure's error, so the summary's is nil.
func (p *Plan) Summary() (*federate.Result, error) { return &p.sum, nil }

// Add folds one dispatch's summary into the plan's: each fragment
// dispatch's, and that of a left operand whose leaf reports through the
// plan.
func (p *Plan) Add(res *federate.Result) {
	p.sum.PerDataset = append(p.sum.PerDataset, res.PerDataset...)
	p.sum.Duplicates += res.Duplicates
	for _, da := range res.PerDataset {
		if da.Err != nil && !errors.Is(da.Err, federate.ErrStreamClosed) {
			p.sum.Partial = true
		}
	}
}

// fragmentLeaf is one fragment as a plan leaf. As a join's right operand
// it is a bound join — the left keys and their owl:sameAs aliases shipped
// as VALUES, in BindBatch-row shards — while they fit MaxBindRows; past
// the cap, or with no key to ship, it fetches unbound and the join hashes
// over sameAs-canonicalised keys, which also covers fragments whose
// entities live in another URI space than the bindings.
type fragmentLeaf struct {
	e     *Engine
	d     *Decomposition
	f     *Fragment
	stage int64
	plan  *Plan
}

// Fetch runs the fragment (see eval.Remote), profiling a join stage on a
// "join" span: bound-join or hash-join, its left rows, the rows fetched
// against the estimate, and the joined rows out. A fragment answered in
// process reads its Leaf, whose rows the plan's summary counts under
// view:<id>, with no attempt.
func (l *fragmentLeaf) Fetch(ctx context.Context, seed *eval.Seed, yield func(eval.Row) bool) error {
	if l.f.Leaf != nil {
		n := 0
		err := l.f.Leaf.Fetch(ctx, seed, func(r eval.Row) bool { n++; return yield(r) })
		l.plan.Add(&federate.Result{PerDataset: []federate.DatasetAnswer{{Dataset: "view:" + l.f.View, Solutions: n}}})
		return err
	}
	if seed == nil {
		return l.dispatch(ctx, nil, yield)
	}
	ctx, span := obs.StartSpan(ctx, "join")
	st := obs.Operator("bound-join")
	st.Stage, st.EstRows, st.RowsIn = l.stage, l.f.EstCard, int64(seed.Left)
	var fetched int64
	var err error
	if seed.Left > 0 { // an empty left side: the join is empty, nothing to dispatch
		shards := l.bind(seed)
		if shards == nil {
			l.e.metrics.hashJoinStages.Inc()
			st.Op = "hash-join"
		}
		start := time.Now()
		err = l.dispatch(ctx, shards, func(r eval.Row) bool {
			fetched++
			more := yield(r)
			if st.FirstRowMS < 0 && seed.Joined > 0 {
				st.FirstRowMS = float64(time.Since(start).Microseconds()) / 1000
			}
			return more
		})
	}
	st.ActualRows, st.RowsOut = fetched, seed.Joined
	st.QError = obs.QError(float64(st.EstRows), float64(fetched))
	span.SetOperator(st)
	span.End()
	return err
}

// bind returns the VALUES shards of a bound join over the seed's keys, or
// nil when the stage hashes: no key to ship, or more distinct rows to ship
// than MaxBindRows, aliases counted — past the cap the hash fallback is
// cheaper than a flood of VALUES shards.
func (l *fragmentLeaf) bind(seed *eval.Seed) []*sparql.Query {
	opts := l.e.opts
	if len(seed.Vars) == 0 || opts.MaxBindRows < 0 {
		return nil
	}
	values := &sparql.InlineData{Vars: seed.Vars}
	var shipped eval.KeySet
	for i := range seed.Keys.N {
		// Ship every owl:sameAs alias of the bound IRIs: the merge
		// canonicalised the bindings, and the representative URI may not
		// be the one this fragment's endpoints store.
		for _, variant := range l.e.expandRow(seed.Keys.Row(i)) {
			if shipped.AddRow(variant) {
				values.Rows = append(values.Rows, variant)
			}
		}
		if len(values.Rows) > opts.MaxBindRows {
			return nil
		}
	}
	shards, _ := plan.ShardQuery(fragmentQuery(l.d, l.f, values), opts.BindBatch, opts.MaxShards)
	l.e.metrics.boundJoinStages.Inc()
	l.e.metrics.valuesRows.Add(float64(len(values.Rows)))
	return shards
}

// whole makes dec's query, which its cover answers whole, dec's one
// fragment: the query as the endpoints run it, cut at its VALUES block
// into ValuesBatch-row shards.
func (d *Decomposer) whole(dec *Decomposition, cover []plan.Target) *Fragment {
	wq := wireQuery(dec.Query)
	f := &Fragment{Targets: cover, Query: wq, Vars: wq.Projection()}
	if shards, _ := plan.ShardQuery(wq, d.opts.ValuesBatch, d.opts.MaxShards); len(shards) > 1 {
		f.Shards = shards
	}
	dec.Fragments = []*Fragment{f}
	return f
}

// request is the executor's request for fragment f of d: each of the
// given shards of its sub-query — or its planned shards, or its sub-query
// — to each of its targets in dispatch order, a target's shards together,
// under the target's deadline.
func request(d *Decomposition, f *Fragment, shards []*sparql.Query) federate.Request {
	if shards == nil {
		if shards = f.Shards; shards == nil {
			shards = []*sparql.Query{fragmentQuery(d, f, nil)}
		}
	}
	// Rewriting translates from the fragment's own vocabulary, which on a
	// multi-vocabulary query may differ from the query-level source.
	req := federate.Request{SourceOnt: cmp.Or(f.RewriteOnt, d.SourceOnt), Vars: f.Vars,
		Targets: make([]federate.Target, 0, len(f.Targets)*len(shards))}
	for _, t := range f.Targets {
		for i, shard := range shards {
			target := federate.Target{
				Dataset:      t.Dataset,
				Endpoint:     t.Endpoint,
				Replicas:     t.Replicas,
				NeedsRewrite: t.NeedsRewrite,
				Query:        shard,
				Timeout:      t.Timeout,
			}
			if len(shards) > 1 { // one sub-query is unsharded: 0/0
				target.Shard, target.Shards = i+1, len(shards)
			}
			req.Targets = append(req.Targets, target)
		}
	}
	return req
}

// dispatch sends the fragment's sub-query, or the given VALUES shards of
// it, and pushes the merged rows over the fragment's variables into
// yield; its summary goes to the plan's. An unbound fetch of a group opens
// a "fragment" operator span (estimate vs actual cardinality, q-error,
// first-row latency) and feeds each dataset's actual into the
// observed-cardinality store; bound shards skip both, since a semi-join's
// result says nothing about the fragment's true extent, and so does a
// whole fragment, which has no estimate.
func (l *fragmentLeaf) dispatch(ctx context.Context, shards []*sparql.Query, yield func(eval.Row) bool) error {
	d, f := l.d, l.f
	req := request(d, f, shards)
	profiled := shards == nil && f.Query == nil
	var span *obs.Span
	var epoch uint64
	if profiled {
		ctx, span = obs.StartSpan(ctx, "fragment")
		// A KB invalidation during the fetch makes its actuals describe
		// the old data: Observe then drops them.
		epoch = l.e.opts.Cards.Epoch()
	}
	start, yielded, firstRowMS := time.Now(), int64(0), -1.0
	s := l.e.exec.SelectStream(ctx, req)
	err := s.Fetch(ctx, nil, func(row eval.Row) bool {
		if yielded == 0 {
			firstRowMS = float64(time.Since(start).Microseconds()) / 1000
		}
		yielded++
		return yield(row)
	})
	res, _ := s.Summary() // its error, the fail-fast abort, ended the rows too
	l.plan.Add(res)
	var n int64
	for _, da := range res.PerDataset {
		n += int64(da.Solutions)
	}
	l.e.metrics.transferred.Add(float64(n))
	if !profiled {
		return err
	}
	for _, da := range res.PerDataset {
		if da.Err == nil && da.Shards <= 1 {
			l.e.opts.Cards.Observe(da.Dataset, f.statTerm, f.statShape,
				f.estByDataset[da.Dataset], int64(da.Solutions), epoch)
		}
	}
	st := obs.Operator("fragment")
	st.Stage, st.RowsOut, st.Solutions = l.stage, yielded, n
	st.EstRows, st.ActualRows = f.EstCard, n
	st.QError = obs.QError(float64(f.EstCard), float64(n))
	st.FirstRowMS = firstRowMS
	span.SetOperator(st)
	span.End()
	return err
}

// maxAliasVariants caps how many owl:sameAs aliases one binding expands
// into (hub entities can carry hundreds; past the cap the remaining
// aliases are dropped — the hash fallback, which joins on canonicalised
// keys, covers them).
const maxAliasVariants = 4

// expandRow returns the VALUES rows for one binding: the row itself plus
// every combination of its IRIs' owl:sameAs aliases, so a bound join
// reaches endpoints that store a different member of the equivalence
// class than the merge's representative.
func (e *Engine) expandRow(row []rdf.Term) [][]rdf.Term {
	out := [][]rdf.Term{row}
	for i, t := range row {
		if e.coref == nil || !t.IsIRI() {
			continue
		}
		var aliases []rdf.Term
		for _, eq := range e.coref.Equivalents(t.Value) {
			if eq != t.Value && len(aliases) < maxAliasVariants-1 {
				aliases = append(aliases, rdf.NewIRI(eq))
			}
		}
		if len(aliases) == 0 {
			continue
		}
		// Each row so far, then its variants at position i.
		var next [][]rdf.Term
		for _, r := range out {
			next = append(next, r)
			for _, a := range aliases {
				v := slices.Clone(r)
				v[i] = a
				next = append(next, v)
			}
		}
		out = next
	}
	return out
}
