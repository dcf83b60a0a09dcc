package mediate

import (
	"cmp"
	"context"
	"io"
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
// Runner the view manager materializes through, the route that plans a
// covered SELECT as one fragment a view's rows answer, and the observe
// hook that feeds the shape miner from the decomposed-query stream.

// ctxNoViews marks the context of a view's own build, whose queries must
// bypass the view tier: a view is never built from a view, nor its build
// mined.
type ctxNoViews struct{}

// viewRunner adapts the mediator's federated pipeline to view.Runner.
type viewRunner struct{ m *Mediator }

// Materialize runs the view's covering query through the full federated
// pipeline (planning, decomposition, bound joins, sameAs merge) over the
// whole KB and drains it. Complete is true only when every contributing
// data set answered successfully — the storable rule the result cache
// uses.
func (r viewRunner) Materialize(ctx context.Context, q *sparql.Query, sourceOnt string) (*view.MaterializeResult, error) {
	qs, err := r.m.selectStream(context.WithValue(ctx, ctxNoViews{}, true), QueryRequest{SourceOnt: sourceOnt}, q)
	if err != nil {
		return nil, err
	}
	defer qs.Close()
	return materialized(qs)
}

// materialized drains a stream into the view manager's result shape. The
// view's rows outlive the query by far, so they are copied with their
// strings cut from an arena of the result's own, not left pinning the
// decoders' chunks.
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
// representatives, as the merge does: the view manager matches and mines
// shapes with it, and re-keys views when the sameAs closure may have
// moved.
func (r viewRunner) Canonicalise(patterns []rdf.Triple) []rdf.Triple {
	canon := federate.NewRepCache(r.m.Coref)
	out := make([]rdf.Triple, len(patterns))
	for i, t := range patterns {
		out[i] = canon.Triple(t)
	}
	return out
}

// viewDecomposition plans q as one fragment a ready view answers in
// process, when one covers it and every data set the view was built from
// is in the request's source set: nil otherwise, and for a view's own
// build, which would recurse.
func (m *Mediator) viewDecomposition(ctx context.Context, q *sparql.Query, req QueryRequest) *decompose.Decomposition {
	if m.Views == nil || ctx.Value(ctxNoViews{}) != nil {
		return nil
	}
	hit, ok := m.Views.Answer(q, req.sources)
	if !ok {
		return nil
	}
	return decompose.Local(q, req.SourceOnt, &decompose.Fragment{View: hit.View.ID(), Datasets: hit.Datasets,
		Vars: hit.Vars, Leaf: &viewLeaf{views: m.Views, hit: hit}})
}

// viewLeaf is a view's rows as a plan leaf. It counts the hit when the
// plan reads it, so explaining a query counts none.
type viewLeaf struct {
	views *view.Manager
	hit   view.Hit
}

// Fetch yields the view's rows on a "view" operator span.
func (l *viewLeaf) Fetch(ctx context.Context, _ *eval.Seed, yield func(eval.Row) bool) error {
	_, span := obs.StartSpan(ctx, "view")
	span.SetString("view", l.hit.View.ID())
	l.views.CountHit(l.hit.View)
	n := 0
	for n < l.hit.Rows.N {
		n++
		if !yield(l.hit.Rows.Row(n - 1)) {
			break
		}
	}
	st := obs.Operator("view")
	st.RowsOut = int64(n)
	span.SetOperator(st)
	span.End()
	return nil
}

// observeViews feeds one query the join engine joined across data sets to
// the shape miner, unless views are off or this is a view's own build. It
// runs on the same path that just executed the query, so the
// decomposition's data sets and calibrated cardinality estimates are in
// hand for free; the largest fragment estimate bounds the join size the
// miner screens against its row cap.
func (m *Mediator) observeViews(ctx context.Context, q *sparql.Query, sourceOnt string, dcm *decompose.Decomposition) {
	if m.Views == nil || ctx.Value(ctxNoViews{}) != nil || dcm.Whole() != nil || dcm.Fragments[0].Leaf != nil {
		return
	}
	est := slices.MaxFunc(dcm.Fragments, func(a, b *decompose.Fragment) int { return cmp.Compare(a.EstCard, b.EstCard) }).EstCard
	m.Views.Observe(q, sourceOnt, dcm.Datasets(), est)
}
