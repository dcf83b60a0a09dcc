package mediate

import (
	"context"
	"slices"

	"sparqlrw/internal/decompose"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/view"
)

// This file is the mediator side of the materialized-view tier: the
// Runner the view manager materializes through, the route step that hands
// each fragment a ready view covers to that view's rows, and the observe
// hook that feeds the shape miner the fragments the endpoints answered.

// ctxNoViews marks the context of a view's own build, whose queries must
// bypass the view tier: a view is never built from a view, nor its build
// mined.
type ctxNoViews struct{}

// viewRunner adapts the mediator's federated pipeline to view.Runner.
type viewRunner struct{ m *Mediator }

// Materialize runs the view's covering query through the full federated
// pipeline (planning, decomposition, bound joins, sameAs merge) over the
// given data sets, as a request's source set, and drains it. Complete is
// true only when every contributing data set answered successfully — the
// storable rule the result cache uses.
func (r viewRunner) Materialize(ctx context.Context, q *sparql.Query, datasets []string) (*view.MaterializeResult, error) {
	var req QueryRequest
	var err error
	if req.sources, _, err = r.m.sourceSet(nil, datasets); err != nil {
		return nil, err
	}
	qs, err := r.m.selectStream(context.WithValue(ctx, ctxNoViews{}, true), req, q)
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
	for row, err := range qs.Rows() {
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

// Canonical maps a ground IRI to its owl:sameAs representative, as the
// merge does: the view manager matches and mines shapes with it, and
// re-keys views when the sameAs closure may have moved.
func (r viewRunner) Canonical(t rdf.Term) rdf.Term { return r.m.Coref.Term(t) }

// answerFromViews hands each fragment of dcm a view answers to it — a
// ready one, or a stale one once its pending rebuild publishes, waited for
// under ctx — unless views are off or this is a view's own build, which
// would recurse. The route decides it once, so the plan explained is the
// plan run.
func (m *Mediator) answerFromViews(ctx context.Context, dcm *decompose.Decomposition) {
	if m.Views == nil || ctx.Value(ctxNoViews{}) != nil {
		return
	}
	for k, f := range dcm.Fragments {
		var buf [4]string
		if hit, _ := m.Views.Answer(ctx, f.BGP(), f.AppendTargetDatasets(buf[:0])); hit != nil {
			dcm.AnswerFrom(k, hit.View.ID(), hit.Vars, hit)
		}
	}
}

// observeViews feeds the fragments the endpoints answer to the shape
// miner, with their targets and calibrated cardinality estimates, unless
// views are off or this is a view's own build.
func (m *Mediator) observeViews(ctx context.Context, dcm *decompose.Decomposition) {
	if m.Views == nil || ctx.Value(ctxNoViews{}) != nil {
		return
	}
	for _, f := range dcm.Fragments {
		if f.View == "" {
			var buf [4]string
			m.Views.Observe(f.BGP(), f.AppendTargetDatasets(buf[:0]), f.EstCard)
		}
	}
}
