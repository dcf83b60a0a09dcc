package mediate

import (
	"sparqlrw/internal/decompose"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/plan"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/view"
)

// Config is the mediator's consolidated configuration: one struct holding
// the per-layer option blocks that used to be scattered across three
// per-subsystem configure methods. Build one with functional options
// (WithFederation, WithDecomposer, ...) via New or Configure; read the
// active configuration back with Mediator.Config.
type Config struct {
	// Federation tunes the executor: worker-pool bound, per-endpoint
	// deadlines/retries, circuit breakers, rewrite-plan cache, policy.
	Federation federate.Options
	// Decompose tunes decomposition (VALUES sharding of whole fragments
	// included) and the streaming join engine.
	Decompose decompose.Options
	// RewriteFilters enables the §4 FILTER extension for all rewrites.
	RewriteFilters bool
	// Observability tunes the mediator's metrics registry, trace ring,
	// structured logger and slow-query threshold (zero value: private
	// registry, slog default logger, 1s threshold, 128-trace ring).
	Observability obs.Options
	// Serving enables the production serving tier — multi-tenant
	// admission, the federated result cache and policy-by-rewriting —
	// in front of Query and /sparql. Nil disables the tier entirely
	// (every request runs as before PR 8).
	Serving *serve.Options
	// Views enables the materialized-view tier: the frequent fragments of
	// federated plans are materialized (sameAs-canonicalised) as rows and
	// later fragments of the same pattern are answered from them with no
	// endpoint round trip. Nil disables the tier.
	Views *view.Options
}

// Option mutates a Config; the functional-option input of New and
// Configure.
type Option func(*Config)

// WithFederation replaces the federation executor options.
func WithFederation(opts federate.Options) Option {
	return func(c *Config) { c.Federation = opts }
}

// WithDecomposer replaces the decompose options.
func WithDecomposer(opts decompose.Options) Option {
	return func(c *Config) { c.Decompose = opts }
}

// WithRewriteFilters toggles the §4 FILTER-rewriting extension.
func WithRewriteFilters(on bool) Option {
	return func(c *Config) { c.RewriteFilters = on }
}

// WithObservability replaces the observability options (metrics registry,
// logger, slow-query threshold, trace-ring size). Changing them rebuilds
// the observer — and with a new registry, resets the counters.
func WithObservability(opts obs.Options) Option {
	return func(c *Config) { c.Observability = opts }
}

// WithServing enables the serving tier (admission, result cache,
// tenant policy) with the given options.
func WithServing(opts serve.Options) Option {
	return func(c *Config) { c.Serving = &opts }
}

// WithViews enables the materialized-view tier (shape mining, views kept
// as answer rows, TTL + invalidation refresh) with the given options.
func WithViews(opts view.Options) Option {
	return func(c *Config) { c.Views = &opts }
}

// Config returns a snapshot of the mediator's active configuration.
func (m *Mediator) Config() Config { return m.cfg }

// Configure applies the options on top of the mediator's current
// configuration and rebuilds the execution stack: the federation executor
// (resetting its endpoint table — breakers, health and the per-endpoint
// counts together — and the rewrite-plan cache; the registry's own
// counters accumulate), the planner and the decomposer with its join
// engine. Configuring after changing rewrite-relevant state (e.g.
// RewriteFilters) guarantees no cached plan produced under the old
// settings is served.
func (m *Mediator) Configure(opts ...Option) {
	for _, opt := range opts {
		opt(&m.cfg)
	}
	m.rebuild()
}

// rebuild reconstructs the executor / planner / decomposer stack from the
// current Config, in dependency order: the planner reads the executor's
// endpoint table, and the join engine dispatches through the executor.
// The observer — and with it the metrics registry — survives rebuilds
// (unless WithObservability changed its options), so every layer's
// counters accumulate across reconfiguration; function-backed families
// (plan cache, the endpoint table's counts, breaker states and health)
// re-bind to the fresh subsystems and start over with them.
func (m *Mediator) rebuild() {
	if m.Obs == nil || m.obsOpts != m.cfg.Observability {
		old := m.Obs
		m.Obs = obs.NewObserver(m.cfg.Observability)
		m.obsOpts = m.cfg.Observability
		m.metrics = newMediatorMetrics(m.Obs.Registry)
		// Flush the replaced observer's exporter and release its recorder;
		// otherwise every reconfiguration leaks a batching goroutine.
		old.Close()
	}
	m.RewriteFilters = m.cfg.RewriteFilters
	fedOpts := m.cfg.Federation
	fedOpts.Registry = m.Obs.Registry
	m.Exec = federate.NewExecutor(m.Client, m.rewriteShape, m.Coref, fedOpts)
	// The endpoint table lists every configured endpoint even before
	// traffic reaches it.
	for _, ds := range m.Datasets.All() {
		m.Exec.Endpoints().Ensure(ds.SPARQLEndpoint)
	}
	if m.cfg.Serving != nil {
		// The registry's get-or-create constructors make re-registration
		// on rebuild safe: the function-backed cache families re-bind to
		// the fresh tier, the admission counter vecs accumulate.
		m.Serve = serve.NewTier(*m.cfg.Serving, m.Obs.Registry)
	}
	m.Planner = plan.New(m.Datasets, m.Alignments, m.Coref, m.Exec.Endpoints(), plan.Options{Registry: m.Obs.Registry})
	decOpts := m.cfg.Decompose
	decOpts.Registry = m.Obs.Registry
	decOpts.Cards = m.Obs.Cards
	m.Decomposer = decompose.New(m.Planner, decOpts)
	m.JoinEngine = decompose.NewEngine(m.Exec, m.Coref, decOpts)
	if m.cfg.Views != nil {
		// Inject the shared registry and card store, then rebuild only
		// when the effective options actually changed — the view manager
		// owns background goroutines and its materialized rows, so a
		// gratuitous rebuild would throw both away. A new observer changes
		// the injected pointers, which forces the rebuild it requires.
		vOpts := *m.cfg.Views
		vOpts.Registry = m.Obs.Registry
		vOpts.Cards = m.Obs.Cards
		if m.Views == nil || vOpts != m.viewOpts {
			if m.Views != nil {
				m.Views.Close()
			}
			m.Views = view.NewManager(viewRunner{m}, vOpts)
			m.viewOpts = vOpts
		}
	}
}
