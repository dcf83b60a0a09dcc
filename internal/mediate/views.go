package mediate

import (
	"context"
	"io"
	"iter"
	"slices"

	"sparqlrw/internal/decompose"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/view"
)

// This file is the mediator side of the materialized-view tier: the
// Runner the view manager materializes through, the answer hook that
// serves a covered SELECT from a view's embedded store, and the observe
// hook that feeds the shape miner from the decomposed-query stream.

// ctxNoViews marks a context whose queries must bypass the view tier —
// set on view materialization queries so a view is never built from
// another view (no recursion, no self-mining).
type ctxNoViews struct{}

func withoutViews(ctx context.Context) context.Context {
	return context.WithValue(ctx, ctxNoViews{}, true)
}

func viewsDisabled(ctx context.Context) bool {
	on, _ := ctx.Value(ctxNoViews{}).(bool)
	return on
}

// viewRunner adapts the mediator's federated pipeline to view.Runner.
type viewRunner struct{ m *Mediator }

// Materialize runs the view's covering query through the full federated
// pipeline (planning, decomposition, bound joins, sameAs merge) over the
// whole KB and drains it. Complete is true only when every contributing
// data set answered successfully — the storable rule the result cache
// uses.
func (r viewRunner) Materialize(ctx context.Context, q *sparql.Query, sourceOnt string) (*view.MaterializeResult, error) {
	qs, err := r.m.selectStream(withoutViews(ctx), QueryRequest{SourceOnt: sourceOnt}, q)
	if err != nil {
		return nil, err
	}
	defer qs.Close()
	return materialized(qs)
}

// materialized drains a stream into the view manager's result shape. The
// view's store outlives the query by far, so the rows are copied with
// their strings cut from an arena of the result's own, not left pinning
// the decoders' chunks.
func materialized(qs *QueryStream) (*view.MaterializeResult, error) {
	res := &view.MaterializeResult{Vars: qs.Vars()}
	res.Rows.Width = len(res.Vars)
	var arena rdf.Arena
	for {
		row, err := qs.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		res.Rows.AppendCompact(&arena, row)
	}
	sum, err := qs.Summary()
	if err != nil {
		return nil, err
	}
	res.Complete = storable(sum)
	for _, da := range sum.PerDataset {
		if !slices.Contains(res.Datasets, da.Dataset) {
			res.Datasets = append(res.Datasets, da.Dataset)
		}
	}
	return res, nil
}

// Canonicalise maps the patterns' ground IRIs to their owl:sameAs
// representatives — the refresh loop re-keys views with it when the
// sameAs closure may have moved.
func (r viewRunner) Canonicalise(patterns []rdf.Triple) []rdf.Triple {
	canon := federate.NewRepCache(r.m.Coref)
	out := make([]rdf.Triple, len(patterns))
	for i, t := range patterns {
		out[i] = canon.Triple(t)
	}
	return out
}

// viewAnswer serves the query from a covering materialized view, when
// one is ready. It returns ok=false — and the caller proceeds to the
// federated path — on a miss, a stale view, or an evaluation error.
func (m *Mediator) viewAnswer(ctx context.Context, req QueryRequest, q *sparql.Query) (*QueryStream, bool) {
	canon := federate.NewRepCache(m.Coref)
	v, ok := m.Views.Answer(q, canon.Term, req.sources)
	if !ok {
		return nil, false
	}
	// The view store holds canonical representatives, so the query's
	// ground IRIs — in its patterns and in its FILTER constants — must be
	// canonicalised the same way before it is evaluated over it.
	cq := q.Clone()
	canonicaliseGroup(cq.Where, canon)
	for _, el := range cq.Where.Elements {
		if f, isFilter := el.(*sparql.Filter); isFilter {
			f.Expr = sparql.MapExprTerms(f.Expr, canon.Term)
		}
	}
	_, span := obs.StartSpan(ctx, "view")
	span.SetAttr("view", v.ID())
	res, err := m.Views.Rows(v, cq)
	if err != nil {
		// The query falls back to federation, so for the metrics the
		// paper's experiment reads this is a miss, not a hit.
		m.Views.CountMiss()
		span.SetAttr("error", err.Error())
		span.End()
		return nil, false
	}
	m.Views.CountHit(v)
	span.End()
	next, stop := iter.Pull(res.Seq)
	src := &pulledSource{vars: res.Vars, stop: stop,
		next: func() (eval.Row, error, bool) { row, ok := next(); return row, nil, ok }}
	// The summary lists the view pseudo-dataset, with zero Attempts:
	// nothing was dispatched over the federation.
	src.summary = func() (*federate.Result, error) {
		return &federate.Result{PerDataset: []federate.DatasetAnswer{{Dataset: "view:" + v.ID(), Solutions: src.n}}}, nil
	}
	return &QueryStream{limit: req.Limit, src: src}, true
}

// observeViews feeds one decomposed multi-source query to the shape
// miner. It runs on the same path that just executed the query, so the
// decomposition's data sets and calibrated cardinality estimates are in
// hand for free; the largest fragment estimate bounds the join size the
// miner screens against MaxTriples.
func (m *Mediator) observeViews(q *sparql.Query, sourceOnt string, dcm *decompose.Decomposition) {
	var est int64
	for _, f := range dcm.Fragments {
		if f.EstCard > est {
			est = f.EstCard
		}
	}
	canon := federate.NewRepCache(m.Coref)
	m.Views.Observe(q, sourceOnt, dcm.Datasets(), est, canon.Term)
}
