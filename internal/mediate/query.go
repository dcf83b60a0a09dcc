package mediate

import (
	"cmp"
	"context"
	"fmt"
	"iter"
	"maps"
	"slices"
	"strconv"
	"strings"

	"sparqlrw/internal/algebra"
	"sparqlrw/internal/decompose"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/voidkb"
)

// QueryRequest describes one federated query for Mediator.Query: the
// query text (any form — SELECT, ASK, CONSTRUCT or DESCRIBE) plus the
// execution options.
type QueryRequest struct {
	// Query is the query text, in any vocabulary the alignments translate
	// from: each target rewrites every triple through the alignment its
	// IRIs match.
	Query string
	// Targets narrows the request's source set to the named data sets
	// (duplicates count once); empty leaves it as the tenant's policy
	// allows. Either way the voiD-driven planner selects, shards and
	// orders the data sets of the set, decomposing the query across them
	// when none covers it alone. A target off the tenant's dataset
	// allowlist is refused with serve.ErrDenied, one the voiD KB does not
	// register with an error naming it, both before any round trip.
	Targets []string
	// Limit caps the result stream: merged solutions for SELECT, triples
	// for CONSTRUCT/DESCRIBE. Reaching it cancels the remaining upstream
	// work. 0 means no limit; ASK ignores it.
	Limit int
	// Tenant is the serving-tier tenant executing the query (nil: the
	// anonymous tenant, unrestricted unless configured otherwise). Its
	// policy is injected into the query algebra before planning, and its
	// dataset allowlist is the request's source set.
	Tenant *serve.Tenant

	// sources is the request's source set, which queryParsed derives from
	// Tenant's policy and Targets: every path considers only its data
	// sets. denied reports that the policy's allowlist alone narrowed it,
	// so that a set answering nothing is a policy refusal.
	sources voidkb.Sources
	denied  bool
}

// Result is the form-polymorphic outcome of Mediator.Query: a tagged
// union discriminated by Form. Exactly one payload accessor is non-zero —
// Bindings for SELECT (a lazy solution stream), Bool for ASK, Graph for
// CONSTRUCT and DESCRIBE (a lazy triple stream). A stream dispatches
// nothing before its first range, and leaving a range stops its upstream
// work. Always Close a Result.
type Result struct {
	form   sparql.Form
	sel    *QueryStream
	ask    bool
	askSum *FederatedResult
	graph  *GraphStream
	dec    *decompose.Decomposition
	qo     *queryObs
}

// Form reports which query form executed, and with it which payload
// accessor carries the result.
func (r *Result) Form() sparql.Form { return r.form }

// Bindings returns the lazy solution stream of a SELECT result (nil for
// every other form).
func (r *Result) Bindings() *QueryStream { return r.sel }

// Bool returns the ASK outcome (false for every other form).
func (r *Result) Bool() bool { return r.ask }

// Graph returns the lazy triple stream of a CONSTRUCT or DESCRIBE result
// (nil for every other form).
func (r *Result) Graph() *GraphStream { return r.graph }

// Decomposition reports the query's plan: its fragments and the
// per-data-set decisions over the request's source set, or the one
// fragment a materialized view answers (nil on a result-cache answer, and
// for DESCRIBE without a WHERE clause, whose resources need no plan of
// their own).
func (r *Result) Decomposition() *decompose.Decomposition { return r.dec }

// Trace returns the query's span tree: every pipeline stage's timings and
// annotations (rewrite cache hits, per-endpoint attempts, retries,
// time-to-first-solution). The trace is finished — and recorded in the
// mediator's trace ring — when the Result is closed, unless the query's
// context already carried a trace, in which case its starter owns it.
func (r *Result) Trace() *obs.Trace {
	if r.qo == nil {
		return nil
	}
	return r.qo.trace
}

// Summary reports the fan-out's outcome: per-dataset answers, duplicate
// count, partial flag. A stream nobody ranged over runs to its end first;
// after a consumer broke out early, or the limit cut the stream, it
// reports what ran, the sub-queries the stop cut short as abandoned
// (federate.ErrStreamClosed), no failure (see QueryStream.Summary). For
// ASK it is available immediately.
func (r *Result) Summary() (*FederatedResult, error) {
	switch {
	case r.sel != nil:
		return r.sel.Summary()
	case r.graph != nil:
		return r.graph.Summary()
	default:
		return r.askSum, nil
	}
}

// Close releases whichever stream is live — rows nobody ranged over never
// run — and closes the query's observation (in-flight gauge, latency
// histogram, trace finish + ring record). It does not interrupt a range
// in progress: cancel the query's context for that. Safe to call at any
// point and more than once.
func (r *Result) Close() error {
	defer r.qo.finish()
	switch {
	case r.sel != nil:
		return r.sel.Close()
	case r.graph != nil:
		return r.graph.Close()
	}
	return nil
}

// Query is the mediator's one federated entry point, polymorphic over the
// query form:
//
//   - SELECT streams merged, owl:sameAs-deduplicated solutions
//     (Result.Bindings) as endpoints deliver them;
//   - ASK executes as a LIMIT-1 SELECT over the same federation pipeline
//     and returns the boolean (Result.Bool);
//   - CONSTRUCT executes its WHERE clause as a rewritten, federated
//     SELECT projected onto the template variables — planner source
//     selection, VALUES sharding and cross-vocabulary decomposition all
//     apply unchanged — and instantiates the template per solution into a
//     lazy, sameAs-deduplicated triple stream (Result.Graph);
//   - DESCRIBE runs as one plan: its resources (ground IRIs, plus
//     WHERE-bound variables through the same federated pipeline) join the
//     description fetch, the decomposer's seeded fragment over every data
//     set of the request's source set (its targets, when it names them),
//     streaming the union of their outgoing triples under canonical
//     subjects.
//
// No source ontology is named: each target rewrites every triple through
// the alignment into it that the triple's IRIs match. Targets narrow the
// data sets every form may read. A request the result cache has answered
// before — the same tenant, limit, targets and text — replays that answer
// before the parse. Cancelling ctx (or leaving a range over the result's
// rows) aborts every in-flight sub-query.
func (m *Mediator) Query(ctx context.Context, req QueryRequest) (*Result, error) {
	if res := m.replayByText(ctx, req); res != nil {
		return res, nil
	}
	q, err := sparql.Parse(req.Query)
	if err != nil {
		return nil, fmt.Errorf("mediate: parsing query: %w", err)
	}
	return m.queryParsed(ctx, req, q)
}

// queryParsed is Query past its text lookup and parse, the entry of the
// HTTP handler (it has parsed already, for content negotiation). From
// here to the executor the query is q and what is derived from it;
// req.Query is only the text the trace reports and the text key carries. The per-form counter counts queries accepted for
// dispatch, including ones that subsequently fail planning or execution.
func (m *Mediator) queryParsed(ctx context.Context, req QueryRequest, q *sparql.Query) (*Result, error) {
	ctx, qo := m.beginQuery(ctx, q.Form)
	qo.setQuery(req.Query)

	// Serving tier, part 1 — policy-by-rewriting: the tenant's graph
	// restrictions are injected into the algebra before anything looks at
	// the query, so planning, caching and execution all see the
	// restricted form, and its dataset allowlist, narrowed to the named
	// targets, becomes the one source set every path reads.
	var err error
	if req.sources, req.denied, err = m.sourceSet(req.Tenant.GetPolicy(), req.Targets); err != nil {
		qo.fail(err)
		return nil, err
	}
	shown := ""
	if q2, changed, perr := serve.Restrict(q, req.Tenant.GetPolicy()); perr != nil {
		qo.fail(perr)
		return nil, perr
	} else if changed {
		q, shown = q2, sparql.Format(q2)
		qo.setQuery(shown) // the trace shows what runs, not what was asked
	}

	// Serving tier, part 2 — the federated result cache: SELECT and ASK
	// answers replay from memory under the sameAs-canonicalised key,
	// with zero endpoint round trips, and the request's text key is bound
	// to the answer it hit or fills, for replayByText.
	fill := m.cacheFill(req, q, shown, qo)
	if res := fill.lookup(req, qo); res != nil {
		return res, nil
	}

	res, err := m.formResult(ctx, req, q)
	if err != nil {
		qo.fail(err)
		return nil, err
	}
	fill.attach(res)
	res.qo = qo
	qo.plan = res.dec
	if res.sel != nil {
		res.sel.qo = qo
	}
	if res.graph != nil {
		res.graph.qo = qo
	}
	return res, nil
}

// sourceSet is a request's source set: the data sets a tenant policy's
// dataset allowlist names, or the whole KB (nil, allocating nothing)
// without one, narrowed to the named targets when there are any. A target
// off the allowlist is refused with ErrDenied, one the voiD KB does not
// register with an error naming it. denied reports that the allowlist
// alone narrowed the set.
func (m *Mediator) sourceSet(p *serve.Policy, targets []string) (src voidkb.Sources, denied bool, err error) {
	if allow := p.AllowedDatasets(); len(allow) > 0 {
		src = make(voidkb.Sources, len(allow))
		for _, uri := range allow {
			src[uri] = true
		}
	}
	if len(targets) == 0 {
		return src, src != nil, nil
	}
	named := make(voidkb.Sources, len(targets))
	for _, uri := range targets {
		if !src.Has(uri) {
			return nil, false, fmt.Errorf("mediate: data set %s: %w", uri, serve.ErrDenied)
		}
		if _, ok := m.Datasets.Get(uri); !ok {
			return nil, false, fmt.Errorf("mediate: unknown data set %s", uri)
		}
		named[uri] = true
	}
	return named, false, nil
}

// formResult dispatches the parsed query to its form's execution path.
func (m *Mediator) formResult(ctx context.Context, req QueryRequest, q *sparql.Query) (*Result, error) {
	switch q.Form {
	case sparql.Select:
		qs, err := m.selectStream(ctx, req, q)
		if err != nil {
			return nil, err
		}
		return &Result{form: q.Form, sel: qs, dec: qs.dec}, nil
	case sparql.Ask:
		return m.askResult(ctx, req, q)
	case sparql.Construct:
		return m.constructResult(ctx, req, q)
	case sparql.Describe:
		return m.describeResult(ctx, req, q)
	default:
		return nil, fmt.Errorf("mediate: unsupported query form %s", q.Form)
	}
}

// QueryStream is an in-flight federated SELECT: merged, deduplicated
// solutions arrive as endpoints deliver them. Range over Rows or
// Solutions once, then call Summary for the per-dataset outcomes; always
// Close. Nothing is dispatched before the first range (or Summary), and a
// range returns only once the work it started has stopped.
type QueryStream struct {
	vars    []string
	rows    iter.Seq2[eval.Row, error] // nil once ranged over or closed
	summary summarizer
	err     error // the error that ended the rows
	n       int   // rows handed out
	dec     *decompose.Decomposition
	limit   int
	qo      *queryObs // nil for internal phase streams (ASK, DESCRIBE phase 1)
}

// summarizer reports what a stream's rows ran: its plan's dispatches
// (*decompose.Plan), or the answer a result-cache hit replays.
type summarizer interface {
	Summary() (*federate.Result, error)
}

// selectStream plans the federated SELECT pipeline for q under req's
// options (limit, source set; not req.Query). q is the request's parsed
// query or the SELECT derived from it for an ASK, CONSTRUCT or DESCRIBE;
// the decomposer reads it, the executor its fragments' queries, and none
// modifies it.
func (m *Mediator) selectStream(ctx context.Context, req QueryRequest, q *sparql.Query) (*QueryStream, error) {
	if q.Form != sparql.Select {
		return nil, fmt.Errorf("mediate: selectStream called on %s query", q.Form)
	}
	dcm, err := m.route(ctx, q, req)
	if err != nil {
		return nil, err
	}
	m.observeViews(ctx, dcm)
	qs, _, err := m.open(ctx, dcm, nil, req.Limit, false)
	return qs, err
}

// open is where every query form's rows come from: dcm's plan over left
// (nil: none), compiled to run under ctx, its rows over dcm's projection
// cut at limit (0: none). The plan and the cut take the one limit, as the
// plan drops a LIMIT the cut makes redundant: a whole fragment with
// nothing else above its merge is a plan of one leaf, whose rows are its
// dispatch's. An ASK's rows (ask) are planned under a cut of 1 and read to
// their end: a whole fragment's are each endpoint's first (LIMIT 1 stays
// on the wire), so its summary waits for every endpoint's answer, and a
// decomposed query's plan stops at its first row.
func (m *Mediator) open(ctx context.Context, dcm *decompose.Decomposition, left algebra.Op, limit int, ask bool) (*QueryStream, *decompose.Plan, error) {
	cut := limit
	if ask {
		limit, cut = 1, 0
	}
	dp := m.JoinEngine.Plan(dcm, left, limit)
	rows, err := (&eval.Engine{Funcs: m.Funcs.Resolver()}).Open(ctx, dp.Op, dcm.Vars)
	if err != nil {
		return nil, nil, err
	}
	return &QueryStream{vars: dcm.Vars, rows: rows, summary: dp, dec: dcm, limit: cut}, dp, nil
}

// route plans q over the request's source set: as one whole fragment over
// the data sets that answer it whole, or — when none does — as
// per-endpoint fragments joined at the mediator; and hands each fragment a
// ready materialized view covers to that view's rows, which answer it in
// process without an endpoint round trip. The query path runs what it
// returns, and /api/plan, PlanQuery and the recorded trace explain it. A
// set that answers nothing is refused with ErrDenied when the tenant's
// allowlist narrowed it, and named otherwise.
func (m *Mediator) route(ctx context.Context, q *sparql.Query, req QueryRequest) (*decompose.Decomposition, error) {
	dcm, err := m.Decomposer.DecomposeQuery(ctx, q, req.sources)
	if err == nil {
		m.answerFromViews(ctx, dcm)
		return dcm, nil
	}
	if req.denied {
		return nil, fmt.Errorf("mediate: no permitted data set answers the query (%v): %w", err, serve.ErrDenied)
	}
	among := ""
	if req.sources != nil {
		among = " among the named targets " + strings.Join(slices.Sorted(maps.Keys(req.sources)), ", ")
	}
	return nil, fmt.Errorf(
		"mediate: no registered data set%s is relevant to the whole query and it does not decompose (%v); see /api/plan", among, err)
}

// Vars returns the query's projection variable names.
func (qs *QueryStream) Vars() []string { return qs.vars }

// Decomposition reports the query's plan, a view-answered one included
// (nil on a result-cache answer).
func (qs *QueryStream) Decomposition() *decompose.Decomposition { return qs.dec }

// Rows returns the merged rows, a sequence to range over once: row[i]
// binds Vars()[i] (the zero Term for unbound), and the row is valid for
// its iteration only and must not be modified — Solutions hands out
// independent maps instead. No row costs an allocation of its own. The
// fan-out's fail-fast error, if any, ends the sequence; so does Limit.
// Reaching the limit or breaking out of the loop stops the upstream work
// before the range returns. A second range, or one after Close, yields
// nothing.
func (qs *QueryStream) Rows() iter.Seq2[eval.Row, error] {
	return func(yield func(eval.Row, error) bool) {
		rows := qs.rows
		if rows == nil {
			return
		}
		qs.rows = nil
		rows(func(row eval.Row, err error) bool {
			if err != nil {
				qs.err = err
				yield(nil, err)
				return false
			}
			qs.n++
			qs.qo.emit()
			return yield(row, nil) && qs.n != qs.limit
		})
	}
}

// Solutions adapts Rows into a lazy sequence of solution maps, one built
// per row and owned by the caller, terminated by the fan-out's fail-fast
// error, if any. Breaking out of the loop stops the upstream work and
// closes the stream.
func (qs *QueryStream) Solutions() eval.SolutionSeq {
	return func(yield func(eval.Solution, error) bool) {
		for row, err := range qs.Rows() {
			if err != nil {
				yield(nil, err)
				return
			}
			if !yield(eval.RowSolution(qs.vars, row), nil) {
				qs.Close()
				return
			}
		}
	}
}

// Summary reports the fan-out's outcome: per-dataset answers in dispatch
// order, the duplicate count and the partial flag. Rows nobody ranged over
// run first, to their end. After a range that stopped early — at the
// limit, by a break, or by Close before any range — it reports what ran:
// the sub-queries the stop cut short count as abandoned
// (federate.ErrStreamClosed), which is no failure, and the data sets
// never reached are absent. Solutions is nil — they already flowed
// through the stream; Collect re-attaches them.
func (qs *QueryStream) Summary() (*FederatedResult, error) {
	for range qs.Rows() {
	}
	res, err := qs.summary.Summary()
	res.Vars = qs.vars
	return res, cmp.Or(qs.err, err)
}

// Close releases the stream — rows nobody ranged over never run — and
// closes the query's observation (see Result.Close), so consumers that
// hold only the stream (Collect, the Solutions loop) still settle the
// in-flight gauge and latency histogram. It does not interrupt a range in
// progress: break out of it, or cancel the query's context from another
// goroutine. It is safe to call more than once.
func (qs *QueryStream) Close() error {
	qs.rows = nil
	qs.qo.finish()
	return nil
}

// Collect materialises the stream into the buffered FederatedResult
// shape, sorted deterministically — the convenience for callers that
// don't need first-solution latency.
func (qs *QueryStream) Collect() (*FederatedResult, error) {
	defer qs.Close()
	var sols []eval.Solution
	for sol, err := range qs.Solutions() {
		if err != nil {
			break // the fail-fast abort; Summary re-reports it
		}
		sols = append(sols, sol)
	}
	res, err := qs.Summary()
	res.Solutions = sols
	eval.SortSolutions(res.Solutions)
	return res, err
}

// askResult executes an ASK as a LIMIT-1 federated SELECT over the same
// WHERE clause: the boolean is "did any endpoint produce a solution", and
// the per-dataset summary is available immediately on the Result.
func (m *Mediator) askResult(ctx context.Context, req QueryRequest, q *sparql.Query) (*Result, error) {
	sel := q.Clone()
	sel.Form = sparql.Select
	sel.SelectStar = true
	sel.OrderBy = nil
	sel.Limit = 1
	sel.Offset = -1
	dcm, err := m.route(ctx, sel, req)
	if err != nil {
		return nil, err
	}
	m.observeViews(ctx, dcm)
	qs, _, err := m.open(ctx, dcm, nil, 0, true)
	if err != nil {
		return nil, err
	}
	defer qs.Close()
	ask := false
	for _, err := range qs.Rows() {
		if err != nil {
			return nil, err
		}
		ask = true
	}
	sum, serr := qs.Summary()
	if serr != nil && !ask {
		return nil, serr
	}
	return &Result{form: sparql.Ask, ask: ask, askSum: sum, dec: qs.dec}, nil
}

// constructResult executes a CONSTRUCT as a federated SELECT projected
// onto the template's variables; the returned GraphStream instantiates
// the template once per merged solution.
func (m *Mediator) constructResult(ctx context.Context, req QueryRequest, q *sparql.Query) (*Result, error) {
	var tmplVars []string
	seen := map[string]bool{}
	for _, t := range q.Template {
		for _, v := range t.Vars() {
			if !seen[v] {
				seen[v] = true
				tmplVars = append(tmplVars, v)
			}
		}
	}
	hasBlank := false
	for _, t := range q.Template {
		for _, x := range t.Terms() {
			if x.IsBlank() {
				hasBlank = true
			}
		}
	}
	sel := q.Clone()
	sel.Form = sparql.Select
	sel.Template = nil
	if len(tmplVars) > 0 {
		sel.SelectVars = tmplVars
	} else {
		sel.SelectStar = true
	}
	if sel.Limit < 0 && sel.Offset < 0 && !hasBlank {
		// Without solution slicing, projecting DISTINCT template bindings
		// is graph-equivalent and minimises transfer. With LIMIT/OFFSET it
		// would change which solutions are counted, and with template
		// blank nodes each solution must instantiate its own fresh bnode,
		// so duplicate bindings still produce distinct triples.
		sel.Distinct = true
	}
	limit := req.Limit // counts triples: the graph stream's, not the solutions'
	req.Limit = 0
	qs, err := m.selectStream(ctx, req, sel)
	if err != nil {
		return nil, err
	}
	gs := newGraphStream(qs, q.Template, m.Coref, limit, q.Prefixes)
	return &Result{form: sparql.Construct, graph: gs, dec: qs.dec}, nil
}

// describeQuery is the description fetch of every DESCRIBE: the outgoing
// triples of the resources it is joined with, each once. It is shared and
// never modified.
var describeQuery = sparql.MustParse("SELECT DISTINCT ?s ?p ?o WHERE { ?s ?p ?o }")

// describeResult executes a DESCRIBE as one plan: its resources joined
// with the description fetch. The resources are the ground IRIs,
// canonicalised as the merge answers, and each IRI the WHERE clause binds
// to a described variable through the federated SELECT pipeline (phase
// one). The fetch is describeQuery under the tenant's policy, planned over
// the request's source set as the whole fragment every data set there
// answers, which the join engine seeds as any bound join: each data set
// receives the resources' spellings its URI space holds as VALUES shards,
// or past MaxBindRows the fragment is fetched unbound and hash-joined. Subjects
// stream out canonicalised, so the same entity described by two
// repositories merges into one description.
func (m *Mediator) describeResult(ctx context.Context, req QueryRequest, q *sparql.Query) (*Result, error) {
	dq, _, err := serve.Restrict(describeQuery, req.Tenant.GetPolicy())
	if err != nil {
		return nil, err
	}
	dcm, err := m.Decomposer.DecomposeQuery(ctx, dq, req.sources)
	if err != nil {
		return nil, err
	}

	ground, vars := q.DescribeResources()
	rows := make([][]rdf.Term, len(ground))
	for i, r := range ground {
		rows[i] = []rdf.Term{m.Coref.Term(r)}
	}
	s := []string{"s"}
	var left algebra.Op = &algebra.Table{Vars: s, Rows: rows}
	limit := req.Limit // counts the description's triples, not phase one's solutions
	req.Limit = 0
	res := &Result{form: sparql.Describe}
	phase1 := &resourceLeaf{}
	if len(vars) > 0 && q.Where != nil {
		sel := q.Clone()
		sel.Form = sparql.Select
		sel.DescribeTerms = nil
		sel.SelectVars = vars
		if sel.Limit < 0 && sel.Offset < 0 {
			// DISTINCT is resource-set-preserving only without solution
			// slicing: under LIMIT/OFFSET the modifiers count solutions,
			// not distinct resources.
			sel.Distinct = true
		}
		if phase1.qs, err = m.selectStream(ctx, req, sel); err != nil {
			return nil, err
		}
		res.dec = phase1.qs.dec
		left = &algebra.Union{L: left, R: &algebra.Remote{Vars: s, Source: phase1}}
	}
	qs, dp, err := m.open(ctx, dcm, &algebra.Distinct{Input: left}, 0, false)
	if err != nil {
		return nil, err
	}
	phase1.plan = dp
	res.graph = newGraphStream(qs, []rdf.Triple{{
		S: rdf.NewVar("s"), P: rdf.NewVar("p"), O: rdf.NewVar("o"),
	}}, m.Coref, limit, q.Prefixes)
	return res, nil
}

// resourceLeaf is a DESCRIBE's phase one as a plan leaf: each IRI the
// WHERE clause binds to a described variable, as ?s. The join drains it
// before the description fetch dispatches, so its answers lead the plan's
// summary.
type resourceLeaf struct {
	qs   *QueryStream
	plan *decompose.Plan
}

func (l *resourceLeaf) Fetch(_ context.Context, _ *eval.Seed, yield func(eval.Row) bool) error {
	cell, more := make(eval.Row, 1), true
	for row, err := range l.qs.Rows() {
		if err != nil {
			break // the summary's error
		}
		for _, t := range row { // the projection is the described variables
			if cell[0] = t; t.IsIRI() && more {
				more = yield(cell)
			}
		}
		if !more {
			break
		}
	}
	sum, err := l.qs.Summary()
	l.plan.Add(sum)
	return err
}

// GraphStream is an in-flight CONSTRUCT or DESCRIBE result: a lazy,
// deduplicated triple stream instantiated from the underlying federated
// solution stream. Range over Triples once, then call Summary; always
// Close.
type GraphStream struct {
	src      *QueryStream
	template []rdf.Triple
	canon    *federate.RepCache
	prefixes *rdf.PrefixMap
	limit    int
	qo       *queryObs
}

func newGraphStream(src *QueryStream, template []rdf.Triple, canon *federate.RepCache, limit int, prefixes *rdf.PrefixMap) *GraphStream {
	return &GraphStream{
		src:      src,
		template: template,
		canon:    canon,
		limit:    limit,
		prefixes: prefixes,
	}
}

// Prefixes returns the source query's prefix map, for serialisers that
// want to QName-shrink the streamed triples (the Turtle writer).
func (g *GraphStream) Prefixes() *rdf.PrefixMap { return g.prefixes }

// Triples returns the distinct triples, a sequence to range over once,
// terminated by the fan-out's fail-fast error, if any. Triples are
// deduplicated after owl:sameAs canonicalisation, so the same fact
// surfacing from two repositories under equivalent URIs is emitted once.
// Reaching the triple limit or breaking out of the loop stops the
// upstream work before the range returns; a second range yields nothing.
func (g *GraphStream) Triples() iter.Seq2[rdf.Triple, error] {
	return func(yield func(rdf.Triple, error) bool) {
		binds := eval.RowBindings{Vars: g.src.Vars()} // the current row, read by variable name
		seen := map[rdf.Triple]bool{}
		n := 0 // solutions consumed, numbering template blank nodes
		for row, err := range g.src.Rows() {
			if err != nil {
				yield(rdf.Triple{}, err)
				return
			}
			binds.Row = row
			suffix := "_c" + strconv.Itoa(n)
			n++
			for _, tpl := range g.template {
				t, ok := eval.InstantiateTemplate(tpl, &binds, suffix)
				if !ok {
					continue
				}
				if t = g.canon.Triple(t); seen[t] {
					continue
				}
				seen[t] = true
				g.qo.emit()
				if !yield(t, nil) || len(seen) == g.limit {
					return
				}
			}
		}
	}
}

// Collect materialises the stream into a graph, returning the first
// stream error.
func (g *GraphStream) Collect() (rdf.Graph, error) {
	defer g.Close()
	var out rdf.Graph
	for t, err := range g.Triples() {
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Summary reports the fan-out's outcome as QueryStream.Summary does, after
// a range that stopped early included: per-dataset answers — for DESCRIBE,
// the phase-one resource resolution answers followed by the description
// fetches — the duplicate count and the partial flag. A stream nobody
// ranged over runs to its end first. Safe to call more than once.
func (g *GraphStream) Summary() (*FederatedResult, error) { return g.src.Summary() }

// Close releases the stream and closes the query's observation (see
// Result.Close); like QueryStream.Close it does not interrupt a range in
// progress. It is safe to call more than once.
func (g *GraphStream) Close() error {
	defer g.qo.finish()
	return g.src.Close()
}
