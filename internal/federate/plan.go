package federate

import "sparqlrw/internal/plan"

// PlanRequest converts a planner-produced federation plan into the
// executor's request shape: each ordered, VALUES-sharded sub-request
// becomes a target, with the plan's per-endpoint deadlines tightening
// the default attempt budget. The executor's in-order pool admission
// preserves the plan's fastest-first order.
func PlanRequest(p *plan.Plan) Request {
	req := Request{SourceOnt: p.SourceOnt, Vars: p.Vars}
	for _, s := range p.Subs {
		req.Targets = append(req.Targets, Target{
			Dataset:      s.Dataset,
			Endpoint:     s.Endpoint,
			Replicas:     s.Replicas,
			NeedsRewrite: s.NeedsRewrite,
			Query:        s.Query,
			Timeout:      s.Timeout,
			Shard:        s.Shard,
			Shards:       s.Shards,
		})
	}
	return req
}

// InvalidateDataset drops every cached rewrite plan targeting the given
// data set; wired to voidkb.KB.Subscribe so a changed voiD entry cannot
// serve stale plans. It returns how many entries were dropped.
func (e *Executor) InvalidateDataset(dataset string) int {
	return e.cache.Invalidate(func(ds string) bool { return ds == dataset })
}

// FlushPlans empties the rewrite-plan cache; wired to align.KB.Subscribe
// since cached plans embed the alignment set they were produced under.
// It returns how many entries were dropped.
func (e *Executor) FlushPlans() int {
	return e.cache.Invalidate(nil)
}
