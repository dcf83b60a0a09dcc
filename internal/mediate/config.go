package mediate

import (
	"sparqlrw/internal/decompose"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/plan"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/view"
)

// options is what New builds the mediator from, set by the With* options
// below. A nil serving or views leaves that tier off.
type options struct {
	federation     federate.Options
	decompose      decompose.Options
	rewriteFilters bool
	observability  obs.Options
	serving        *serve.Options
	views          *view.Options
}

// Option sets one part of the configuration New builds the mediator
// from.
type Option func(*options)

// WithFederation sets the federation executor options: worker-pool
// bound, per-endpoint deadlines and retries, circuit breakers, hedging,
// rewrite-plan cache, partial-result policy.
func WithFederation(opts federate.Options) Option {
	return func(o *options) { o.federation = opts }
}

// WithDecomposer sets the decompose options: VALUES sharding of whole
// fragments, bound joins and the streaming join engine.
func WithDecomposer(opts decompose.Options) Option {
	return func(o *options) { o.decompose = opts }
}

// WithRewriteFilters toggles the §4 FILTER-rewriting extension.
func WithRewriteFilters(on bool) Option {
	return func(o *options) { o.rewriteFilters = on }
}

// WithObservability sets the observability options (metrics registry,
// logger, slow-query threshold, trace-ring size). Without it the mediator
// has a private registry, the slog default logger, a 1s threshold and a
// 128-trace ring.
func WithObservability(opts obs.Options) Option {
	return func(o *options) { o.observability = opts }
}

// WithServing enables the serving tier (admission, result cache,
// tenant policy) with the given options.
func WithServing(opts serve.Options) Option {
	return func(o *options) { o.serving = &opts }
}

// WithViews enables the materialized-view tier (shape mining, views kept
// as answer rows, TTL + invalidation refresh) with the given options.
func WithViews(opts view.Options) Option {
	return func(o *options) { o.views = &opts }
}

// build constructs every layer from o, in dependency order: each layer
// registers into the observer's registry, the planner reads the
// executor's endpoint table, and the join engine dispatches through the
// executor.
func (m *Mediator) build(o options) {
	m.Obs = obs.NewObserver(o.observability)
	m.metrics = newMediatorMetrics(m.Obs.Registry)
	m.rewriteFilters = o.rewriteFilters
	fedOpts := o.federation
	fedOpts.Registry = m.Obs.Registry
	m.Exec = federate.NewExecutor(m.Client, m.rewriteShape, m.Coref, fedOpts)
	// The endpoint table lists every configured endpoint even before
	// traffic reaches it.
	for _, ds := range m.Datasets.All() {
		m.Exec.Endpoints().Ensure(ds.SPARQLEndpoint)
	}
	if o.serving != nil {
		m.Serve = serve.NewTier(*o.serving, m.Obs.Registry)
	}
	m.Planner = plan.New(m.Datasets, m.Alignments, m.Coref, m.Exec.Endpoints(), plan.Options{Registry: m.Obs.Registry})
	decOpts := o.decompose
	decOpts.Registry = m.Obs.Registry
	decOpts.Cards = m.Obs.Cards
	m.Decomposer = decompose.New(m.Planner, decOpts)
	m.JoinEngine = decompose.NewEngine(m.Exec, m.Coref, decOpts)
	if o.views != nil {
		vOpts := *o.views
		vOpts.Registry = m.Obs.Registry
		vOpts.Cards = m.Obs.Cards
		m.Views = view.NewManager(viewRunner{m}, vOpts)
	}
}
