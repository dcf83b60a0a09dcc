package decompose

import (
	"context"
	"errors"
	"slices"
	"strconv"
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

// Dispatcher builds federated fan-outs; *federate.Executor satisfies it.
// Fragments dispatch through the executor so they get the usual pipeline:
// cached rewrites, bounded concurrency, retries, circuit breakers and the
// owl:sameAs merge. A leaf runs the returned fan-out with its own yield
// (federate.Fanout.Run), so the rows never pass through the interface.
type Dispatcher interface {
	Select(ctx context.Context, req federate.Request) federate.Fanout
}

// EngineStats counts join-engine activity for /api/stats.
type EngineStats struct {
	// Runs is how many decomposed queries were executed.
	Runs uint64 `json:"runs"`
	// BoundJoinStages and HashJoinStages count join stages by strategy.
	BoundJoinStages uint64 `json:"boundJoinStages"`
	HashJoinStages  uint64 `json:"hashJoinStages"`
	// ValuesRows is how many bindings were shipped in VALUES blocks,
	// summed over the targets each block went to.
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
	coref   *federate.RepCache
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
// co-reference service whose owl:sameAs representatives the residual
// FILTERs' IRI constants are canonicalised to, as the merge canonicalises
// the rows they run over, through the same cache (federate.NewRepCache);
// it may be nil. The spellings of a bound-join key
// each target receives are the planner's owner lookup's (plan.Owners).
func NewEngine(exec Dispatcher, coref funcs.CorefSource, opts Options) *Engine {
	opts = opts.withDefaults()
	reg := opts.Registry
	return &Engine{
		exec: exec, coref: federate.NewRepCache(coref), opts: opts,
		metrics: engineMetrics{
			runs: reg.Counter("sparqlrw_decompose_runs_total",
				"Decomposed queries executed by the join engine."),
			boundJoinStages: reg.Counter("sparqlrw_decompose_bound_join_stages_total",
				"Join stages executed as bound joins (VALUES-shipped bindings)."),
			hashJoinStages: reg.Counter("sparqlrw_decompose_hash_join_stages_total",
				"Join stages executed as mediator-side hash joins."),
			valuesRows: reg.Counter("sparqlrw_decompose_values_rows_total",
				"Bindings shipped to endpoints in VALUES blocks, summed over the targets each block went to."),
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
// that dispatches when the plan's run first reaches it. Summary reports,
// once the plan has run, what was dispatched.
type Plan struct {
	Op  algebra.Op
	sum federate.Result
	// leaf and remote hold a plan's first fragment, so a plan of one
	// fragment is one allocation.
	leaf   [1]fragmentLeaf
	remote [1]algebra.Remote
}

// Plan builds the plan of one execution of d. A non-nil left operand is
// joined ahead of fragment 0, whose leaf it then seeds as any earlier
// stage seeds a later one. The residual FILTERs run over merged rows,
// which bind owl:sameAs representatives, so their IRI constants are
// canonicalised the same way. A positive limit is a cut the caller makes
// in the plan's rows. A whole fragment with no left operand, over exactly
// the query's projection, with no ORDER BY or OFFSET and no LIMIT but one
// that cut makes redundant, is its own plan: the merge already answers
// that set.
func (e *Engine) Plan(d *Decomposition, left algebra.Op, limit int) *Plan {
	e.metrics.runs.Inc()
	p := &Plan{}
	op := left
	n := len(d.Fragments)
	leaves, remotes := p.leaf[:], p.remote[:]
	if n > 1 {
		leaves, remotes = make([]fragmentLeaf, n), make([]algebra.Remote, n)
	}
	var joins []algebra.Join
	if left != nil || n > 1 {
		joins = make([]algebra.Join, 0, n)
	}
	for k, f := range d.Fragments {
		leaves[k] = fragmentLeaf{e: e, d: d, f: f, stage: int64(k), plan: p}
		if a := f.carrier(); a != nil {
			leaves[k].carrier = &leaves[a.stage]
		}
		remotes[k] = algebra.Remote{Vars: f.Vars, Source: &leaves[k]}
		var leaf algebra.Op = &remotes[k]
		if op != nil {
			joins = append(joins, algebra.Join{L: op, R: leaf})
			leaf = &joins[len(joins)-1]
		}
		op = leaf
		for _, rf := range d.ResidualFilters {
			if rf.Stage == k {
				op = &algebra.Filter{Expr: sparql.MapExprTerms(rf.expr, e.coref.Term), Input: op}
			}
		}
	}
	mods := d.Query
	if w := d.Whole(); w != nil {
		cut := mods.Limit < 0 || 0 < limit && limit <= mods.Limit
		if cut && left == nil && len(mods.OrderBy) == 0 && mods.Offset < 0 && slices.Equal(w.Vars, d.Vars) {
			p.Op = op
			return p
		}
		// The merge answers a set over the wire's variables; projected onto
		// the query's, it stays one under DISTINCT.
		dq := *d.Query
		dq.Distinct, dq.Reduced = true, false
		mods = &dq
	}
	p.Op = algebra.Modifiers(mods, op)
	return p
}

// Summary reports the plan's dispatches in the executor's result shape:
// per-dataset answers for every fragment dispatch, in dispatch order, the
// merge's duplicates, and Partial as the executor sets it — when some
// sub-query failed while others answered (a view's rows answer too), so
// that join results may be incomplete; one abandoned at a stop is neither.
// The rows carry a failure's error, so the summary's is nil.
func (p *Plan) Summary() (*federate.Result, error) {
	var failed, ok int
	for _, da := range p.sum.PerDataset {
		switch {
		case da.Err == nil:
			ok++
		case !errors.Is(da.Err, federate.ErrStreamClosed):
			failed++
		}
	}
	p.sum.Partial = failed > 0 && ok > 0
	return &p.sum, nil
}

// Add folds one dispatch's summary into the plan's: each fragment
// dispatch's, and that of a left operand whose leaf reports through the
// plan.
func (p *Plan) Add(res *federate.Result) {
	if p.sum.PerDataset == nil {
		// The first dispatch's answers are the plan's, until a later one's
		// append copies them.
		p.sum.PerDataset = slices.Clip(res.PerDataset)
	} else {
		p.sum.PerDataset = append(p.sum.PerDataset, res.PerDataset...)
	}
	p.sum.Duplicates += res.Duplicates
}

// fragmentLeaf is one fragment as a plan leaf. As a join's right operand
// it is a bound join — each target receives the left keys in the
// spellings it may hold, as VALUES in BindBatch-row shards — while every
// target's block fits MaxBindRows; past the cap, or with no key to ship,
// it fetches unbound and the join hashes over sameAs-canonicalised keys.
//
// A fragment that travels inside an earlier one's sub-query (see pair)
// has its carrier's leaf: its bound join yields the rows the carrier's
// fetch held for it, and ships each target only the keys that target did
// not answer there.
type fragmentLeaf struct {
	e     *Engine
	d     *Decomposition
	f     *Fragment
	stage int64
	plan  *Plan
	// carrier is the leaf whose sub-query this fragment travels in, nil
	// when none; carry is what this leaf's fetch kept for the fragment
	// travelling in its own, nil when none does or before the fetch.
	carrier *fragmentLeaf
	carry   *carriage
}

// Fetch runs the fragment (see eval.Remote), profiling a join stage on a
// "join" span: bound-join or hash-join, its left rows, the VALUES rows it
// shipped and the data sets it skipped, the rows fetched against the
// estimate, and the joined rows out. A fragment a view answers reads the
// view's rows in process, handing them the seed, and the plan's summary
// counts them under view:<id>, with no attempt.
func (l *fragmentLeaf) Fetch(ctx context.Context, seed *eval.Seed, yield func(eval.Row) bool) error {
	if l.f.local != nil {
		n, err := l.f.local.Fetch(ctx, seed, yield)
		l.plan.sum.PerDataset = append(l.plan.sum.PerDataset, federate.DatasetAnswer{Dataset: "view:" + l.f.View, Solutions: n})
		return err
	}
	if seed == nil {
		return l.dispatch(ctx, nil, eval.RowBuf{}, yield)
	}
	ctx, span := obs.StartSpan(ctx, "join")
	st := obs.Operator("bound-join")
	st.Stage, st.EstRows, st.RowsIn = l.stage, l.f.EstCard, int64(seed.Left)
	var fetched int64
	var err error
	start := time.Now()
	emit := func(r eval.Row) bool {
		fetched++
		more := yield(r)
		if st.FirstRowMS < 0 && seed.Joined > 0 {
			st.FirstRowMS = float64(time.Since(start).Microseconds()) / 1000
		}
		return more
	}
	// An empty left side, or no key to send that a target holds a spelling
	// of and did not answer in the carrier's sub-query: nothing to
	// dispatch, and the rows the carrier's fetch held are the stage's.
	// Otherwise they lead the dispatch's rows, through its merge.
	if seed.Left > 0 {
		c := l.held()
		byTarget, shipped := l.bind(seed, c, span)
		var lead eval.RowBuf
		if c != nil {
			lead = c.rows
		}
		switch {
		case byTarget == nil:
			l.e.metrics.hashJoinStages.Inc()
			st.Op = "hash-join"
			err = l.dispatch(ctx, nil, lead, emit)
		case shipped > 0:
			err = l.dispatch(ctx, byTarget, lead, emit)
		default:
			for i := 0; i < lead.N && emit(lead.Row(i)); i++ {
			}
		}
	}
	if l.carry != nil {
		span.SetInt("carries", int64(l.carry.stage))
	}
	st.ActualRows, st.RowsOut = fetched, seed.Joined
	st.QError = obs.QError(float64(st.EstRows), float64(fetched))
	span.SetOperator(st)
	span.End()
	return err
}

// bind returns a bound join's VALUES shards over the seed's keys for each
// target of the fragment, in dispatch order — none for a target that holds
// none of the keys' spellings — and how many VALUES rows they carry in
// all; or nil when the stage hashes: no key to ship, or more distinct rows
// for one target than MaxBindRows, past which the hash fallback is cheaper
// than a flood of VALUES shards.
//
// The merge canonicalised the keys, so a key's representative may be a
// spelling a target does not store. Each target receives every
// combination of its keys' spellings it may hold, each row once: where
// the fragment binds a variable at a triple's subject, or at its object
// under a predicate other than rdf:type, the members of the key's
// owl:sameAs class the owner lookup lets the target hold (plan.Owners);
// anywhere else, every member.
//
// A key whose rows the carrier's sub-query c already fetched from a target
// is not sent to it again: one that target spells one way only and
// returned in that answer, which ended without error. The span records
// the VALUES rows, the keys sent to a target that had not answered them
// there (complementKeys), and why each target without a block has none.
func (l *fragmentLeaf) bind(seed *eval.Seed, c *carriage, span *obs.Span) (byTarget [][]*sparql.Query, shipped int) {
	opts, owners, targets := l.e.opts, l.d.owners, l.f.Targets
	width := len(seed.Vars)
	if width == 0 || opts.MaxBindRows < 0 {
		return nil, 0
	}
	// Per key position: whether the owner lookup decides it, the key's
	// owl:sameAs class there (nil for a term that is no IRI), the
	// spellings one target receives, and the one a combination takes.
	type position struct {
		exact     bool
		class     []string
		spellings []rdf.Term
		at        int
	}
	// Per target: its VALUES block and the rows already in it; the keys
	// the carrier's sub-query answered at its data set, and whether some
	// key was left out for that.
	type block struct {
		values   sparql.InlineData
		rows     eval.KeySet
		answered *targetKeys
		skipped  bool
	}
	pos := make([]position, width)
	for j, v := range seed.Vars {
		pos[j].exact = l.f.exact(v)
	}
	blocks := make([]block, len(targets))
	if c != nil && slices.Equal(seed.Vars, c.keyVars) {
		for k, t := range targets {
			blocks[k].answered = c.at(t.Dataset)
		}
	}
	complement := 0
	var slab []rdf.Term // the rows' cells
	for i := range seed.Keys.N {
		key := seed.Keys.Row(i)
		for j, x := range key {
			pos[j].class = nil
			if x.IsIRI() {
				pos[j].class = owners.Class(x.Value)
			}
		}
	target:
		for k, t := range targets {
			one := true // the target spells the key one way
			for j, x := range key {
				p := &pos[j]
				p.spellings, p.at = p.spellings[:0], 0
				if p.class == nil {
					p.spellings = append(p.spellings, x)
					continue
				}
				for _, m := range p.class {
					if !p.exact || owners.Holds(t, m) {
						p.spellings = append(p.spellings, rdf.NewIRI(m))
					}
				}
				if len(p.spellings) == 0 {
					continue target
				}
				one = one && len(p.spellings) == 1
			}
			b := &blocks[k]
			if a := b.answered; a != nil {
				if one && !a.failed && a.keys.Has(key) {
					b.skipped = true
					continue
				}
				complement++
			}
			// Every combination, the last position counting fastest.
			for {
				if len(slab)+width > cap(slab) {
					slab = make([]rdf.Term, 0, max(64, width*seed.Keys.N))
				}
				row := slab[len(slab) : len(slab)+width]
				for j := range row {
					row[j] = pos[j].spellings[pos[j].at]
				}
				if b.rows.AddRow(row) {
					if b.values.Rows == nil {
						b.values.Rows = make([][]rdf.Term, 0, seed.Keys.N)
					}
					slab = slab[:len(slab)+width]
					if b.values.Rows = append(b.values.Rows, row); len(b.values.Rows) > opts.MaxBindRows {
						return nil, 0
					}
				}
				j := width - 1
				for ; j >= 0; j-- {
					if pos[j].at++; pos[j].at < len(pos[j].spellings) {
						break
					}
					pos[j].at = 0
				}
				if j < 0 {
					break
				}
			}
		}
	}
	byTarget = make([][]*sparql.Query, len(targets))
	base := fragmentQuery(l.d, l.f)
	for k := range blocks {
		values := &blocks[k].values
		if len(values.Rows) > 0 {
			values.Vars = seed.Vars
			byTarget[k], _ = plan.ShardQuery(withValues(l.d.respell(base, targets[k]), values), opts.BindBatch, opts.MaxShards)
			shipped += len(values.Rows)
		}
	}
	l.e.metrics.boundJoinStages.Inc()
	l.e.metrics.valuesRows.Add(float64(shipped))
	if span != nil {
		span.SetInt("valuesRows", int64(shipped))
		if c != nil {
			span.SetInt("complementKeys", int64(complement))
		}
		for k, t := range targets {
			switch {
			case byTarget[k] != nil:
			case blocks[k].skipped:
				span.SetString("skipped "+t.Dataset, "answered in stage "+strconv.FormatInt(l.carrier.stage, 10)+"'s sub-query")
			default:
				span.SetString("skipped "+t.Dataset, "holds none of the keys' spellings")
			}
		}
	}
	return byTarget, shipped
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

// request is the executor's request for fragment f of d: to each of its
// targets in dispatch order, under the target's deadline and together, the
// target's shards — byTarget[k] for target k, none when that is empty; with
// byTarget nil, f's planned shards or its sub-query, which a native target
// receives in its own spellings (plan.Owners.Respell).
func request(d *Decomposition, f *Fragment, byTarget [][]*sparql.Query) federate.Request {
	shards := f.Shards
	if byTarget == nil && shards == nil {
		shards = []*sparql.Query{fragmentQuery(d, f)}
	}
	req := federate.Request{Vars: f.wireVars(),
		Targets: make([]federate.Target, 0, len(f.Targets)*max(len(shards), 1))}
	for k, t := range f.Targets {
		ts := shards
		if byTarget != nil {
			ts = byTarget[k]
		}
		for i, shard := range ts {
			if byTarget == nil {
				shard = d.respell(shard, t)
			}
			target := federate.Target{
				Dataset:      t.Dataset,
				Endpoint:     t.Endpoint,
				Replicas:     t.Replicas,
				NeedsRewrite: t.NeedsRewrite,
				Query:        shard,
				Timeout:      t.Timeout,
			}
			if len(ts) > 1 { // one sub-query is unsharded: 0/0
				target.Shard, target.Shards = i+1, len(ts)
			}
			req.Targets = append(req.Targets, target)
		}
	}
	return req
}

// dispatch sends the fragment's sub-query, or the given per-target VALUES
// shards of it, and pushes the merged rows over the fragment's variables
// into yield, lead's first (federate.Request.Lead); its summary goes to
// the plan's. An unbound fetch of a group
// opens a "fragment" operator span (estimate vs actual cardinality,
// q-error, first-row latency) and feeds each dataset's actual into the
// observed-cardinality store; bound shards skip both, since a semi-join's
// result says nothing about the fragment's true extent, and so does a
// whole fragment, which has no estimate. A carrier's actuals are its own
// distinct rows at each data set, as if nothing travelled with it.
func (l *fragmentLeaf) dispatch(ctx context.Context, byTarget [][]*sparql.Query, lead eval.RowBuf, yield func(eval.Row) bool) error {
	f := l.f
	req := request(l.d, f, byTarget)
	req.Lead = lead
	if byTarget != nil || f.Query != nil {
		_, _, err := l.fetch(ctx, req, yield)
		return err
	}
	ctx, span := obs.StartSpan(ctx, "fragment")
	// A KB invalidation during the fetch makes its actuals describe the old
	// data: Observe then drops them.
	epoch := l.e.opts.Cards.Epoch()
	start, yielded, firstRowMS := time.Now(), int64(0), -1.0
	res, n, err := l.fetch(ctx, req, func(row eval.Row) bool {
		if yielded == 0 {
			firstRowMS = float64(time.Since(start).Microseconds()) / 1000
		}
		yielded++
		return yield(row)
	})
	var actual int64
	for i, da := range res.PerDataset {
		own := int64(da.Solutions)
		if c := l.carry; c != nil {
			own = c.targets[c.target[i]].rows
		}
		actual += own
		if da.Err == nil && da.Shards <= 1 {
			l.e.opts.Cards.Observe(da.Dataset, f.statTerm, f.statShape, f.estimateAt(da.Dataset), own, epoch)
		}
	}
	if c := l.carry; c != nil {
		span.SetInt("carries", int64(c.stage))
		span.SetInt("heldRows", int64(c.rows.N))
	}
	st := obs.Operator("fragment")
	st.Stage, st.RowsOut, st.Solutions = l.stage, yielded, n
	st.EstRows, st.ActualRows = f.EstCard, actual
	st.QError = obs.QError(float64(f.EstCard), float64(actual))
	st.FirstRowMS = firstRowMS
	span.SetOperator(st)
	span.End()
	return err
}

// fetch sends req through the executor and pushes the merged rows into
// yield, then adds the dispatch's summary to the plan's and returns it
// with the solutions the endpoints returned and the fail-fast abort. A
// carrier's rows are wide: it yields their distinct projections onto its
// own variables, and keeps what its carriage needs of them.
func (l *fragmentLeaf) fetch(ctx context.Context, req federate.Request, yield func(eval.Row) bool) (*federate.Result, int64, error) {
	if b := l.f.travelling(); b != nil {
		l.carry = newCarriage(l.f, b, req)
		req.Tap = l.carry.tap
		yield = l.carry.narrow(yield)
	}
	res, err := l.e.exec.Select(ctx, req).Run(yield)
	l.plan.Add(res)
	var n int64
	for i, da := range res.PerDataset {
		n += int64(da.Solutions)
		if da.Err != nil && l.carry != nil {
			l.carry.targets[l.carry.target[i]].failed = true
		}
	}
	l.e.metrics.transferred.Add(float64(n))
	return res, n, err
}

// held returns the rows and answered keys the carrier's fetch kept for
// this fragment: nil when it travels in no sub-query, or the carrier held
// too many of its rows and dropped them.
func (l *fragmentLeaf) held() *carriage {
	if l.carrier == nil || l.carrier.carry == nil || l.carrier.carry.dropped {
		return nil
	}
	return l.carrier.carry
}

// carriage is what a carrier's fetch keeps for the fragment travelling in
// its sub-query: that fragment's rows, and per target of the carrier the
// fragment's join keys the target answered. The carrier's sub-query is its
// own patterns with the travelling fragment's as an OPTIONAL group, so
// for every row a target returns, it returns all of that target's rows of
// the travelling fragment that join it: the fragment's bound join need
// not ask that target for the row's key again. Its tap and narrowed yield
// run on the fan-out's goroutine, one after the other.
type carriage struct {
	carrier *Fragment
	stage   int          // the travelling fragment's
	own     int          // the carrier's variables: a wide row's first columns
	cols    []int        // the travelling fragment's variables' columns in a wide row
	keyCols []int        // its join variables' columns, in its variables' order
	keyVars []string     // those variables
	bound   int          // a column only it binds: bound when it matched
	target  []int        // the carrier's target of each request target
	targets []targetKeys // per target of the carrier
	seen    eval.KeySet  // the carrier's rows yielded
	rows    eval.RowBuf  // the travelling fragment's rows, over its variables
	held    eval.KeySet  // their keys
	dropped bool         // more than eval.MaxHeldRows rows: none are held
	buf     eval.Row
}

// targetKeys is what one target of a carrier returned: how many distinct
// rows of the carrier's own, and the travelling fragment's join keys among
// them, which count only if its answer ended without error.
type targetKeys struct {
	own    eval.KeySet
	rows   int64
	keys   eval.KeySet
	failed bool
}

// newCarriage returns the carriage of carrier a's fetch req, in which b
// travels.
func newCarriage(a, b *Fragment, req federate.Request) *carriage {
	c := &carriage{carrier: a, stage: b.stage, own: len(a.Vars), bound: -1,
		target: make([]int, len(req.Targets)), targets: make([]targetKeys, len(a.Targets)),
		cols: make([]int, len(b.Vars)), buf: make(eval.Row, len(b.Vars))}
	for i, t := range req.Targets {
		c.target[i] = slices.IndexFunc(a.Targets, func(u plan.Target) bool { return u.Dataset == t.Dataset })
	}
	for j, v := range b.Vars {
		col := slices.Index(a.wide, v)
		c.cols[j] = col
		switch {
		case col < c.own:
			c.keyCols, c.keyVars = append(c.keyCols, col), append(c.keyVars, v)
		case c.bound < 0:
			c.bound = col
		}
	}
	c.rows.Width = len(b.Vars)
	return c
}

// at returns what the carrier's target of data set ds returned, nil when
// the carrier has no such target.
func (c *carriage) at(ds string) *targetKeys {
	if k := slices.IndexFunc(c.carrier.Targets, func(t plan.Target) bool { return t.Dataset == ds }); k >= 0 {
		return &c.targets[k]
	}
	return nil
}

// tap records the carrier's distinct rows and their join keys per target
// (federate.Request.Tap).
func (c *carriage) tap(target int, rows eval.RowBuf) {
	tk := &c.targets[c.target[target]]
	for i := range rows.N {
		r := rows.Row(i)
		if tk.own.AddRow(r[:c.own]) {
			tk.rows++
			tk.keys.AddRow(c.project(r, c.keyCols))
		}
	}
}

// narrow returns yield fed with the distinct projections of the wide rows
// onto the carrier's variables, holding each row of the travelling
// fragment on the way, up to eval.MaxHeldRows of them.
func (c *carriage) narrow(yield func(eval.Row) bool) func(eval.Row) bool {
	return func(r eval.Row) bool {
		if !c.dropped && r[c.bound].Kind != rdf.KindAny {
			if row := c.project(r, c.cols); c.held.AddRow(row) {
				c.rows.Append(row)
				if c.rows.N > eval.MaxHeldRows {
					c.dropped, c.rows, c.held = true, eval.RowBuf{}, eval.KeySet{}
				}
			}
		}
		return !c.seen.AddRow(r[:c.own]) || yield(r[:c.own])
	}
}

// project returns the cells of r at cols, in a buffer reused by the next
// call.
func (c *carriage) project(r eval.Row, cols []int) eval.Row {
	row := c.buf[:len(cols)]
	for j, col := range cols {
		row[j] = r[col]
	}
	return row
}
