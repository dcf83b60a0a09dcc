package obs

import (
	"log/slog"
	"time"
)

// Options tune an Observer. The zero value selects the defaults.
type Options struct {
	// Registry receives every layer's metrics. Nil creates a private one;
	// pass a shared registry to merge several components into one
	// /metrics exposition.
	Registry *Registry
	// Logger receives structured log output (slow queries, request
	// logs). Nil selects slog.Default().
	Logger *slog.Logger
	// SlowQuery is the wall-time threshold above which a finished query
	// emits a structured slow-query log line (default 1s; negative
	// disables).
	SlowQuery time.Duration
	// TraceRingSize is how many finished traces GET /api/trace retains
	// (default 128).
	TraceRingSize int
	// OTLPEndpoint, when set, starts an OTLP/HTTP JSON span exporter
	// shipping finished traces to this collector URL (e.g.
	// http://localhost:4318/v1/traces).
	OTLPEndpoint string
	// TraceSample is the exporter's head-sampling probability in (0,1]
	// for locally rooted traces (0 selects 1 = export everything);
	// traces continuing a remote parent follow the caller's sampled flag.
	TraceSample float64
	// AuditDir, when set, enables the query flight recorder: slow or
	// failed queries are persisted as JSON lines in a size-bounded
	// on-disk ring under this directory.
	AuditDir string
	// AdaptiveStats lets the decomposer correct voiD cardinality
	// estimates from the observed-cardinality store. Observation and
	// q-error export happen regardless; this flag only gates corrections.
	AdaptiveStats bool
	// MetricLabelCap bounds distinct label-value combinations per metric
	// family; beyond it new combinations collapse into an "other" series
	// (0 = unbounded). See Registry.SetMaxSeriesPerFamily.
	MetricLabelCap int
}

// Observer bundles the observability surfaces one component threads
// through its layers: the metrics registry, the finished-trace ring,
// the structured logger, and — when configured — the OTLP span
// exporter and the query flight recorder.
type Observer struct {
	Registry  *Registry
	Ring      *TraceRing
	Log       *slog.Logger
	SlowQuery time.Duration
	// Exporter ships finished traces to an OTLP collector; nil when no
	// OTLPEndpoint is configured. Nil-safe to Enqueue on.
	Exporter *OTLPExporter
	// Recorder is the query flight recorder; nil when no AuditDir is
	// configured (or it could not be opened). Nil-safe to Record on.
	Recorder *FlightRecorder
	// Cards is the observed-cardinality feedback store; always non-nil.
	// It persists alongside the flight recorder when AuditDir is set and
	// only corrects estimates when AdaptiveStats is on.
	Cards *CardStore
}

// NewObserver builds an observer from the options.
func NewObserver(opts Options) *Observer {
	o := &Observer{
		Registry:  opts.Registry,
		Log:       opts.Logger,
		SlowQuery: opts.SlowQuery,
	}
	if o.Registry == nil {
		o.Registry = NewRegistry()
	}
	if opts.MetricLabelCap > 0 {
		o.Registry.SetMaxSeriesPerFamily(opts.MetricLabelCap)
	}
	if o.Log == nil {
		o.Log = slog.Default()
	}
	if o.SlowQuery == 0 {
		o.SlowQuery = time.Second
	}
	size := opts.TraceRingSize
	if size <= 0 {
		size = 128
	}
	o.Ring = NewTraceRing(size)
	if opts.OTLPEndpoint != "" {
		o.Exporter = NewOTLPExporter(OTLPOptions{
			Endpoint:    opts.OTLPEndpoint,
			SampleRatio: opts.TraceSample,
			Logger:      o.Log,
			Registry:    o.Registry,
		})
	}
	if opts.AuditDir != "" {
		rec, err := NewFlightRecorder(opts.AuditDir, DefaultAuditMaxBytes)
		if err != nil {
			o.Log.Error("flight recorder disabled", "dir", opts.AuditDir, "err", err)
		} else {
			o.Recorder = rec
		}
	}
	o.Cards = NewCardStore(CardStoreOptions{
		Dir:      opts.AuditDir,
		Registry: o.Registry,
		Adaptive: opts.AdaptiveStats,
	})
	return o
}

// Close flushes the exporter, closes the flight recorder, and persists
// the observed-cardinality store. Nil-safe and idempotent.
func (o *Observer) Close() {
	if o == nil {
		return
	}
	o.Exporter.Close()
	o.Recorder.Close()
	o.Cards.Close()
}
