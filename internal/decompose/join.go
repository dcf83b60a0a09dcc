package decompose

import (
	"context"
	"errors"
	"io"
	"iter"
	"sync"
	"time"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/funcs"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/plan"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
)

// Dispatcher starts federated sub-query streams; *federate.Executor
// satisfies it. The engine goes through the executor so fragment
// dispatches get the usual pipeline: cached rewrites, bounded concurrency,
// retries, circuit breakers and the owl:sameAs merge.
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

// Engine executes decompositions: fragments run left to right as bound
// joins over the federation executor, producing one merged, lazily
// consumed stream of positional rows.
type Engine struct {
	exec     Dispatcher
	resolver eval.FuncResolver
	coref    funcs.CorefSource
	opts     Options
	metrics  engineMetrics
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

// NewEngine builds a join engine over the given dispatcher. funcs
// resolves extension functions in mediator-evaluated filters; coref is
// the co-reference service used to expand bound-join bindings with their
// owl:sameAs equivalents (the executor's merge canonicalises solutions,
// so a binding's representative URI may lie outside the next endpoint's
// URI space — the expansion ships every known alias). Both may be nil.
func NewEngine(exec Dispatcher, fr eval.FuncResolver, coref funcs.CorefSource, opts Options) *Engine {
	opts = opts.withDefaults()
	reg := opts.Registry
	return &Engine{
		exec: exec, resolver: fr, coref: coref, opts: opts,
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

// rowSeq is a stage's output: rows over the run's slot table, each valid
// only during its yield — the stage reuses it for the next one — so a
// stage that keeps rows copies them. A non-nil error ends the sequence.
type rowSeq = iter.Seq2[eval.Row, error]

// Run is an in-flight decomposed query: the streaming counterpart of
// federate.Stream for the multi-source path. Consume Next (io.EOF ends
// the stream) or Solutions, then Summary; always Close.
type Run struct {
	vars   []string
	cancel context.CancelFunc

	// pullMu serialises the iter.Pull2 handles: Next/Summary and a
	// concurrent Close must not drive the coroutine simultaneously.
	pullMu sync.Mutex
	next   func() (eval.Row, error, bool)
	stop   func()

	closeOnce sync.Once
	err       error

	mu          sync.Mutex
	answers     []federate.DatasetAnswer
	partial     bool
	duplicates  int
	transferred int
}

// Run starts executing a decomposition. Fragments dispatch lazily: the
// first fragment's stream opens on the first Next call, and each later
// fragment dispatches only once the accumulated bindings reach it (an
// empty fragment short-circuits the whole join without touching the
// remaining endpoints). Cancelling ctx or calling Close aborts all
// in-flight sub-queries.
func (e *Engine) Run(ctx context.Context, d *Decomposition) *Run {
	ctx, cancel := context.WithCancel(ctx)
	r := &Run{vars: d.Vars, cancel: cancel}
	e.metrics.runs.Inc()
	r.next, r.stop = iter.Pull2(e.pipeline(ctx, d, r))
	return r
}

// Vars returns the final projection variable names, the slot table of
// the rows Next returns.
func (r *Run) Vars() []string { return r.vars }

// Next returns the next joined row (row[i] binding Vars()[i]), io.EOF at
// the end of the stream, or the error that aborted it. The row is valid
// until the next Next or Close; a caller that keeps rows copies them.
func (r *Run) Next() (eval.Row, error) {
	r.pullMu.Lock()
	row, err, ok := r.next()
	r.pullMu.Unlock()
	if !ok {
		if r.err != nil {
			return nil, r.err
		}
		return nil, io.EOF
	}
	if err != nil {
		r.err = err
		return nil, err
	}
	return row, nil
}

// Solutions adapts the run into a lazy sequence of solution maps (one
// built per row), terminated by the first error; breaking out stops the
// upstream work.
func (r *Run) Solutions() eval.SolutionSeq {
	return eval.RowSolutions(r.vars, r.Next, func() { r.Close() })
}

// Close cancels the remaining upstream work. Safe to call at any point,
// more than once, and concurrently with a blocked Next (the cancellation
// unblocks it).
func (r *Run) Close() error {
	r.closeOnce.Do(func() {
		// Cancel before taking pullMu: a Next blocked inside the
		// coroutine holds the mutex until cancellation releases it.
		r.cancel()
		r.pullMu.Lock()
		r.stop()
		r.pullMu.Unlock()
	})
	return nil
}

// Summary reports the run's outcome in the executor's result shape:
// per-dataset answers for every fragment dispatch (in dispatch order),
// the duplicate count, and Partial when any sub-query failed (a failed
// fragment dispatch means join results may be incomplete). It consumes
// whatever remains of the stream first.
func (r *Run) Summary() (*federate.Result, error) {
	for _, err := r.Next(); err == nil; _, err = r.Next() {
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return &federate.Result{
		Vars:       r.vars,
		PerDataset: r.answers,
		Duplicates: r.duplicates,
		Partial:    r.partial,
	}, r.err
}

// Transferred returns how many solutions endpoints returned across all
// fragment dispatches so far (the benchmarks' sol/op numerator).
func (r *Run) Transferred() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.transferred
}

// addResult folds one fragment dispatch's summary into the run.
func (r *Run) addResult(res *federate.Result, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.answers = append(r.answers, res.PerDataset...)
	r.duplicates += res.Duplicates
	for _, da := range res.PerDataset {
		r.transferred += da.Solutions
		if da.Err != nil && !errors.Is(da.Err, federate.ErrStreamClosed) {
			r.partial = true
		}
	}
	if err != nil && r.err == nil && !errors.Is(err, context.Canceled) {
		r.err = err
	}
}

// pipeline composes the fragment stages into one lazy sequence:
// fragment 0 seeds the bindings, each later fragment joins in (bound or
// hash), residual filters apply at their stage, and the final stage
// projects, deduplicates and slices.
func (e *Engine) pipeline(ctx context.Context, d *Decomposition, r *Run) rowSeq {
	var seq rowSeq
	for k, f := range d.Fragments {
		if k == 0 {
			seq = e.fragmentSeq(ctx, d, f, k, nil, r)
		} else {
			seq = e.joinStage(ctx, d, f, k, seq, r)
		}
		for _, rf := range d.ResidualFilters {
			if rf.Stage == k {
				seq = e.filterSeq(ctx, k, seq, d.slots, rf.expr)
			}
		}
	}
	return e.finalSeq(ctx, d, seq, r)
}

// fragmentSeq dispatches one fragment (as the given VALUES shards of its
// sub-query, nil for an unbound fetch) and yields its merged rows, laid out
// over d.slots. The dispatch summary is folded into the run when the
// stage winds down, whether it was drained or abandoned. An unbound fetch
// opens a "fragment" operator span (estimate vs actual cardinality,
// q-error, first-row latency) and feeds each dataset's actual into the
// observed-cardinality store — bound shards skip both, since a
// semi-join's result says nothing about the fragment's true extent.
func (e *Engine) fragmentSeq(ctx context.Context, d *Decomposition, f *Fragment, stage int, shards []*sparql.Query, r *Run) rowSeq {
	// Caller-provided shards are bound-join VALUES shards: their binding
	// rows make each one single-use, so they must not occupy slots in the
	// executor's rewrite-plan LRU.
	boundShards := shards != nil
	if shards == nil {
		shards = []*sparql.Query{fragmentQuery(d, f, nil)}
	}
	// Rewriting translates from the fragment's own vocabulary, which on
	// a multi-vocabulary query may differ from the query-level source.
	srcOnt := d.SourceOnt
	if f.RewriteOnt != "" {
		srcOnt = f.RewriteOnt
	}
	req := federate.Request{SourceOnt: srcOnt, Vars: f.Vars}
	for i, shard := range shards {
		for _, t := range f.Targets {
			req.Targets = append(req.Targets, federate.Target{
				Dataset:          t.Dataset,
				Endpoint:         t.Endpoint,
				NeedsRewrite:     t.NeedsRewrite,
				Query:            shard,
				Shard:            i + 1,
				Shards:           len(shards),
				SkipRewriteCache: boundShards,
			})
		}
	}
	return func(yield func(eval.Row, error) bool) {
		dispatchCtx := ctx
		var span *obs.Span
		var spanStart time.Time
		var yielded int64
		firstRowMS := -1.0
		if !boundShards {
			dispatchCtx, span = obs.StartSpan(ctx, "fragment")
			spanStart = time.Now()
		}
		s := e.exec.SelectStream(dispatchCtx, req)
		defer func() {
			s.Close()
			res, err := s.Summary()
			r.addResult(res, err)
			var n uint64
			for _, da := range res.PerDataset {
				n += uint64(da.Solutions)
			}
			e.metrics.transferred.Add(float64(n))
			if boundShards {
				return
			}
			actual := int64(n)
			for _, da := range res.PerDataset {
				if da.Err == nil && da.Shards <= 1 {
					e.opts.Cards.Observe(da.Dataset, f.statTerm, f.statShape,
						f.estByDataset[da.Dataset], int64(da.Solutions))
				}
			}
			if span != nil {
				st := obs.Operator("fragment")
				st.Stage = int64(stage)
				st.RowsOut = yielded
				st.Solutions = actual
				st.EstRows = f.EstCard
				st.ActualRows = actual
				st.QError = obs.QError(float64(f.EstCard), float64(actual))
				st.FirstRowMS = firstRowMS
				span.SetOperator(st)
				span.End()
			}
		}()
		slots, out := d.slotsOf(f.Vars), make(eval.Row, len(d.slots))
		for {
			row, err := s.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				yield(nil, err)
				return
			}
			if yielded == 0 && !boundShards {
				firstRowMS = float64(time.Since(spanStart).Microseconds()) / 1000
			}
			yielded++
			for i, slot := range slots {
				out[slot] = row[i]
			}
			if !yield(out, nil) {
				return
			}
		}
	}
}

// appendKeyOn appends a row's join key: its terms in the given slots.
func appendKeyOn(dst []byte, row eval.Row, slots []int) []byte {
	for _, s := range slots {
		dst = append(row[s].AppendString(dst), 0)
	}
	return dst
}

// joinStage joins the accumulated left bindings with one fragment. The
// left side is materialised (it is about to be shipped or hashed either
// way) into one flat row buffer, bucketed on the join slots; the right
// side streams, each row merged by position with the left rows of its
// bucket, so joined rows flow out as the endpoints deliver them.
//
// Strategy: while the distinct join-variable bindings fit MaxBindRows,
// they are batched into a VALUES block — sharded through the planner's
// VALUES machinery into BindBatch-sized sub-queries that dispatch
// concurrently — so the endpoint only returns solutions that join
// (a bound join). Past the cap, or when the stage has no join variables
// (cartesian), the fragment is fetched unbound and joined by hash at the
// mediator. Mediator-side hashing probes owl:sameAs-canonicalised keys on
// both sides, so it also covers fragments whose entities live in a
// different URI space than the bindings.
func (e *Engine) joinStage(ctx context.Context, d *Decomposition, f *Fragment, stage int, left rowSeq, r *Run) rowSeq {
	joinSlots := d.slotsOf(f.JoinVars)
	return func(yield func(eval.Row, error) bool) {
		jctx, span := obs.StartSpan(ctx, "join")
		st := obs.Operator("bound-join")
		st.Stage = int64(stage)
		st.EstRows = f.EstCard
		defer func() {
			if st.QError < 0 && st.ActualRows >= 0 {
				st.QError = obs.QError(float64(st.EstRows), float64(st.ActualRows))
			}
			span.SetOperator(st)
			span.End()
		}()
		// Materialise the left side, bucketed by join key. Buckets are in
		// first-seen key order, which keeps VALUES rows deterministic; a
		// bucket's rows are chained through next in arrival order.
		rows := eval.RowBuf{Width: len(d.slots)}
		bucketOf := map[string]int{}
		var first, last, next []int // per bucket, per bucket, per row
		var key []byte              // reused: only a first-seen key is copied into bucketOf
		for row, err := range left {
			if err != nil {
				yield(nil, err)
				return
			}
			key = appendKeyOn(key[:0], row, joinSlots)
			if b, ok := bucketOf[string(key)]; ok {
				next[last[b]], last[b] = rows.N, rows.N
			} else {
				bucketOf[string(key)] = len(first)
				first, last = append(first, rows.N), append(last, rows.N)
			}
			next = append(next, -1)
			rows.Append(row)
		}
		st.RowsIn = int64(rows.N)
		if rows.N == 0 {
			st.RowsOut, st.ActualRows = 0, 0
			return // empty join operand: the join is empty, dispatch nothing
		}

		var shards []*sparql.Query
		bind := len(f.JoinVars) > 0 && e.opts.MaxBindRows >= 0 && len(first) <= e.opts.MaxBindRows
		if bind {
			values := &sparql.InlineData{Vars: append([]string(nil), f.JoinVars...)}
			var shipped eval.KeySet
			for _, i := range first {
				l := rows.Row(i)
				row := make([]rdf.Term, len(joinSlots))
				for j, s := range joinSlots {
					row[j] = l[s] // zero Term reads back as UNDEF
				}
				// Ship every owl:sameAs alias of the bound IRIs: the merge
				// canonicalised the bindings, and the representative URI
				// may not be the one this fragment's endpoints store.
				for _, variant := range e.expandRow(row) {
					if shipped.AddRow(variant) {
						values.Rows = append(values.Rows, variant)
					}
				}
			}
			// The cap applies to the rows actually shipped: alias
			// expansion can multiply the bindings, and past the cap the
			// hash fallback is cheaper than a flood of VALUES shards.
			if len(values.Rows) > e.opts.MaxBindRows {
				bind = false
			} else {
				shards, _ = plan.ShardQuery(fragmentQuery(d, f, values), e.opts.BindBatch, e.opts.MaxShards)
				e.metrics.boundJoinStages.Inc()
				e.metrics.valuesRows.Add(float64(len(values.Rows)))
			}
		}
		if !bind {
			e.metrics.hashJoinStages.Inc()
			st.Op = "hash-join"
		}

		var fetched, merged int64
		spanStart := time.Now()
		out := make(eval.Row, len(d.slots))
		for row, err := range e.fragmentSeq(jctx, d, f, stage, shards, r) {
			if err != nil {
				yield(nil, err)
				return
			}
			fetched++
			st.ActualRows = fetched
			key = appendKeyOn(key[:0], row, joinSlots)
			b, ok := bucketOf[string(key)]
			if !ok {
				continue
			}
			for i := first[b]; i >= 0; i = next[i] {
				if !eval.JoinRows(out, rows.Row(i), row) {
					continue
				}
				if merged == 0 {
					st.FirstRowMS = float64(time.Since(spanStart).Microseconds()) / 1000
				}
				merged++
				st.RowsOut = merged
				if !yield(out, nil) {
					return
				}
			}
		}
		st.ActualRows, st.RowsOut = fetched, merged
	}
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
	if e.coref == nil {
		return [][]rdf.Term{row}
	}
	variants := make([][]rdf.Term, len(row))
	expanded := false
	for i, t := range row {
		variants[i] = []rdf.Term{t}
		if !t.IsIRI() {
			continue
		}
		for _, eq := range e.coref.Equivalents(t.Value) {
			if len(variants[i]) >= maxAliasVariants {
				break
			}
			if eq != t.Value {
				variants[i] = append(variants[i], rdf.NewIRI(eq))
				expanded = true
			}
		}
	}
	if !expanded {
		return [][]rdf.Term{row}
	}
	out := [][]rdf.Term{{}}
	for _, vs := range variants {
		var next [][]rdf.Term
		for _, prefix := range out {
			for _, v := range vs {
				next = append(next, append(append([]rdf.Term(nil), prefix...), v))
			}
		}
		out = next
	}
	return out
}

// filterSeq applies one mediator-side FILTER: per SPARQL semantics an
// erroring expression excludes the row rather than failing the query.
func (e *Engine) filterSeq(ctx context.Context, stage int, in rowSeq, names []string, expr sparql.Expression) rowSeq {
	return func(yield func(eval.Row, error) bool) {
		_, span := obs.StartSpan(ctx, "filter")
		st := obs.Operator("filter")
		st.Stage = int64(stage)
		st.RowsIn, st.RowsOut = 0, 0
		defer func() {
			span.SetOperator(st)
			span.End()
		}()
		b := &eval.RowBindings{Vars: names}
		for row, err := range in {
			if err != nil {
				yield(nil, err)
				return
			}
			st.RowsIn++
			b.Row = row
			if ok, err := eval.EvalBool(expr, b, e.resolver); err == nil && ok {
				st.RowsOut++
				if !yield(row, nil) {
					return
				}
			}
		}
	}
}

// finalSeq projects the joined rows onto the query's variables,
// deduplicates under DISTINCT/REDUCED (counting drops as duplicates, like
// the executor's merge does), and applies OFFSET/LIMIT — stopping the
// upstream fragments as soon as LIMIT is satisfied.
func (e *Engine) finalSeq(ctx context.Context, d *Decomposition, in rowSeq, r *Run) rowSeq {
	slots := d.slotsOf(d.Vars) // -1: a variable no fragment binds stays unbound
	distinct, offset, limit := d.Query.Distinct || d.Query.Reduced, d.Query.Offset, d.Query.Limit
	return func(yield func(eval.Row, error) bool) {
		_, span := obs.StartSpan(ctx, "final")
		st := obs.Operator("distinct-limit")
		st.Stage = int64(len(d.Fragments))
		st.RowsIn, st.RowsOut = 0, 0
		defer func() {
			span.SetOperator(st)
			span.End()
		}()
		var seen eval.KeySet
		skipped, emitted := 0, 0
		out := make(eval.Row, len(slots))
		for row, err := range in {
			if err != nil {
				yield(nil, err)
				return
			}
			st.RowsIn++
			for i, s := range slots {
				if s >= 0 {
					out[i] = row[s]
				}
			}
			if distinct && !seen.AddRow(out) {
				r.mu.Lock()
				r.duplicates++
				r.mu.Unlock()
				continue
			}
			if offset > 0 && skipped < offset {
				skipped++
				continue
			}
			if limit >= 0 && emitted >= limit {
				return
			}
			if !yield(out, nil) {
				return
			}
			emitted++
			st.RowsOut = int64(emitted)
			if limit >= 0 && emitted >= limit {
				return
			}
		}
	}
}
