package mediate

import (
	"context"
	"runtime/debug"
	"sync"
	"time"

	"sparqlrw/internal/decompose"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/sparql"
)

// mediatorMetrics are the mediator's own registry-backed instruments,
// one layer above the federate/plan/decompose counters that share the
// same registry.
type mediatorMetrics struct {
	queries  *obs.CounterVec // by form
	inflight *obs.Gauge
	duration *obs.HistogramVec // by form
	ttfs     *obs.Histogram
	streamed *obs.Counter

	forms [sparql.Describe + 1]formMetrics // by form; index 0 is "other"
}

// formMetrics are one form's series of queries and duration, resolved on
// the form's first query — a form never queried exposes no series — and
// reused after, so counting a query allocates nothing.
type formMetrics struct {
	once     sync.Once
	label    string
	queries  *obs.Counter
	duration *obs.Histogram
}

func (mm *mediatorMetrics) form(f sparql.Form) *formMetrics {
	if int(f) >= len(mm.forms) {
		f = 0
	}
	fm := &mm.forms[f]
	fm.once.Do(func() {
		fm.label = formLabel(f)
		fm.queries = mm.queries.With(fm.label)
		fm.duration = mm.duration.With(fm.label)
	})
	return fm
}

func newMediatorMetrics(r *obs.Registry) *mediatorMetrics {
	return &mediatorMetrics{
		queries: r.CounterVec("sparqlrw_queries_total",
			"Queries accepted for dispatch, by form.", "form"),
		inflight: r.Gauge("sparqlrw_inflight_queries",
			"Queries currently executing (accepted, result not yet closed)."),
		duration: r.HistogramVec("sparqlrw_query_seconds",
			"Query wall time from acceptance to result close, by form.", nil, "form"),
		ttfs: r.Histogram("sparqlrw_query_ttfs_seconds",
			"Time from query acceptance to its first streamed solution or triple.", nil),
		streamed: r.Counter("sparqlrw_solutions_streamed_total",
			"Solutions and triples streamed to consumers across all queries."),
	}
}

func formLabel(f sparql.Form) string {
	switch f {
	case sparql.Select:
		return "select"
	case sparql.Ask:
		return "ask"
	case sparql.Construct:
		return "construct"
	case sparql.Describe:
		return "describe"
	}
	return "other"
}

// queryObs tracks one query from acceptance to result close: the
// in-flight gauge, the per-form latency histogram, time-to-first-solution
// and — when this query started its own trace — finishing the trace,
// recording it in the ring and, for a slow or failed query, emitting the
// slow-query log line and writing its trace document to the flight
// recorder. finish is idempotent, so the explicit error paths and
// Result.Close can both call it.
type queryObs struct {
	m     *Mediator
	trace *obs.Trace
	owned bool // this query started the trace: finish and record it
	form  *formMetrics
	start time.Time

	// plan is the query's decomposition, which a recorded trace document
	// carries; failed records that an error rejected the query (mid-stream
	// failures surface on the trace).
	plan   *decompose.Decomposition
	failed bool

	finishOnce sync.Once
	firstOnce  sync.Once
}

// beginQuery opens the observation for one accepted query, starting a
// trace when ctx does not already carry one (an HTTP request that wants
// the trace in its response passes a prepared context; library callers
// get one for free).
func (m *Mediator) beginQuery(ctx context.Context, form sparql.Form) (context.Context, *queryObs) {
	fm := m.metrics.form(form)
	fm.queries.Inc()
	m.metrics.inflight.Add(1)
	qo := &queryObs{m: m, form: fm, start: time.Now()}
	if t := obs.TraceFrom(ctx); t != nil {
		qo.trace = t
	} else {
		ctx, qo.trace = obs.NewTrace(ctx, "query")
		qo.owned = true
	}
	qo.trace.Root().SetString("form", fm.label)
	return ctx, qo
}

// setQuery records the query text exactly once, on the trace root.
// Operator and fragment spans never repeat it, so a trace's ring and
// export footprint carries one copy of the query regardless of how many
// operators the plan profiled.
func (qo *queryObs) setQuery(q string) {
	if qo == nil {
		return
	}
	qo.trace.Root().SetString("query", q)
}

// emit counts one streamed solution or triple; the first one fixes the
// query's time-to-first-solution. Nil-safe so internal streams without
// an observation need no conditionals.
func (qo *queryObs) emit() {
	if qo == nil {
		return
	}
	qo.m.metrics.streamed.Inc()
	qo.firstOnce.Do(func() {
		ttfs := time.Since(qo.start)
		qo.m.metrics.ttfs.Observe(ttfs.Seconds())
		qo.trace.Root().SetFloat("ttfsMs", float64(ttfs.Microseconds())/1000)
	})
}

// fail records the error that rejected the query and closes the
// observation.
func (qo *queryObs) fail(err error) {
	if qo == nil {
		return
	}
	qo.failed = true
	qo.trace.Root().SetString("error", err.Error())
	qo.finish()
}

func (qo *queryObs) finish() {
	if qo == nil {
		return
	}
	qo.finishOnce.Do(func() {
		m := qo.m
		m.metrics.inflight.Add(-1)
		dur := time.Since(qo.start)
		qo.form.duration.Observe(dur.Seconds())
		if !qo.owned {
			return
		}
		qo.trace.Finish()
		slow := m.Obs.SlowQuery >= 0 && dur >= m.Obs.SlowQuery
		if slow {
			qo.trace.Root().SetBool("slow", true)
		}
		m.Obs.Ring.Add(qo.trace)
		m.Obs.Exporter.Enqueue(qo.trace)
		if slow {
			m.Obs.Log.Warn("slow query",
				"traceId", qo.trace.ID(),
				"form", qo.form.label,
				"durationMs", float64(dur.Microseconds())/1000)
		}
		if m.Obs.Recorder != nil && (slow || qo.failed) {
			doc := qo.trace.View()
			if qo.plan != nil {
				doc.Plan = qo.plan
			}
			if err := m.Obs.Recorder.Record(doc); err != nil {
				m.Obs.Log.Error("flight recorder write failed", "err", err)
			}
		}
	})
}

// BuildInfo identifies the running binary for /api/stats.
type BuildInfo struct {
	GoVersion string `json:"goVersion"`
	// Revision is the VCS commit the binary was built from (empty when
	// built outside a checkout).
	Revision string `json:"revision,omitempty"`
	// Modified is true when the checkout had local modifications.
	Modified bool `json:"modified,omitempty"`
}

// buildInfo reads the binary's embedded build metadata once.
var buildInfo = sync.OnceValue(func() BuildInfo {
	bi := BuildInfo{}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	bi.GoVersion = info.GoVersion
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			bi.Revision = s.Value
		case "vcs.modified":
			bi.Modified = s.Value == "true"
		}
	}
	return bi
})
