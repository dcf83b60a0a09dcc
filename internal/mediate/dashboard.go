package mediate

import (
	"fmt"
	"html/template"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"

	"sparqlrw/internal/obs"
)

// DebugHandler bundles the mediator's operator-facing debug surface for
// the -debug-addr listener: the net/http/pprof profiles plus a
// dependency-free HTML dashboard at /debug/dashboard rendering the
// recent traces as waterfalls and the endpoint health table. It is
// served on a separate listener so production traffic on the main
// address never reaches the profilers.
func DebugHandler(m *Mediator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/dashboard", func(w http.ResponseWriter, r *http.Request) {
		serveDashboard(m, w, r)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		http.Redirect(w, r, "/debug/dashboard", http.StatusFound)
	})
	return mux
}

// dashboardTraces bounds how many recent traces the dashboard renders.
const dashboardTraces = 20

// spanRow is one flattened waterfall row: a span positioned on its
// trace's time axis as CSS percentages.
type spanRow struct {
	Name       string
	SpanID     string
	Depth      int
	Indent     int // Depth * indent step, in px
	OffsetPct  float64
	WidthPct   float64
	DurationMS float64
	Detail     string // compact attr summary
	Failed     bool
}

// traceView is one waterfall: the trace header plus its flattened rows
// and, when the query recorded operator profiles, its operator table as
// /api/trace/{id}?format=text renders it.
type traceView struct {
	ID         string
	Start      string
	DurationMS float64
	Form       string
	Failed     bool
	Rows       []spanRow
	Operators  string
}

// dashboardData is what the page renders: the mediator's one Stats
// document, the recent traces and the flight recorder's record count.
type dashboardData struct {
	Stats
	Traces  []traceView
	Audited int
}

func serveDashboard(m *Mediator, w http.ResponseWriter, r *http.Request) {
	data := dashboardData{Stats: m.Stats()}
	_, data.Audited = m.Obs.Recorder.Page(0, 1)
	for _, t := range m.Obs.Ring.Recent(dashboardTraces) {
		data.Traces = append(data.Traces, waterfall(t.View()))
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = dashboardTemplate.Execute(w, data)
}

// waterfall flattens a trace's span tree into positioned rows.
func waterfall(v obs.TraceJSON) traceView {
	tv := traceView{
		ID:         v.ID,
		Start:      v.Start.Format("15:04:05.000"),
		DurationMS: v.DurationMS,
	}
	if f, ok := v.Root.Attrs["form"].(string); ok {
		tv.Form = f
	}
	if _, ok := v.Root.Attrs["error"]; ok {
		tv.Failed = true
	}
	total := v.DurationMS
	if total <= 0 {
		total = 1
	}
	var walk func(s obs.SpanJSON, depth int)
	walk = func(s obs.SpanJSON, depth int) {
		row := spanRow{
			Name:       s.Name,
			SpanID:     s.SpanID,
			Depth:      depth,
			Indent:     depth * 14,
			OffsetPct:  clampPct(s.StartMS / total * 100),
			WidthPct:   clampPct(s.DurationMS / total * 100),
			DurationMS: s.DurationMS,
			Detail:     attrSummary(s.Attrs),
		}
		if row.WidthPct < 0.5 {
			row.WidthPct = 0.5
		}
		if _, ok := s.Attrs["error"]; ok {
			row.Failed = true
		}
		tv.Rows = append(tv.Rows, row)
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	walk(v.Root, 0)
	if len(v.Operators()) > 0 {
		tv.Operators = v.Text()
	}
	return tv
}

func clampPct(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 100 {
		return 100
	}
	return p
}

// attrSummary renders span attributes as a compact, deterministic
// "k=v k=v" string for the row's detail column.
func attrSummary(attrs map[string]any) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, attrs[k]))
	}
	s := strings.Join(parts, " ")
	if len(s) > 160 {
		s = s[:157] + "..."
	}
	return s
}

// dashboardFuncs scale a fraction in [0,1] for the score bars: pct to a
// percentage, hue to an HSL hue from red (0) to green (120).
var dashboardFuncs = template.FuncMap{
	"pct": func(f float64) float64 { return f * 100 },
	"hue": func(f float64) float64 { return f * 120 },
}

var dashboardTemplate = template.Must(template.New("dashboard").Funcs(dashboardFuncs).Parse(`<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>sparqlrw dashboard</title>
<meta http-equiv="refresh" content="5">
<style>
  body { font: 13px/1.45 system-ui, sans-serif; margin: 1.5rem; color: #1a1a2e; }
  h1 { font-size: 1.2rem; } h2 { font-size: 1rem; margin-top: 1.6rem; }
  table { border-collapse: collapse; width: 100%; }
  th, td { text-align: left; padding: .25rem .6rem; border-bottom: 1px solid #e0e0e8; }
  th { font-weight: 600; color: #555; }
  td.num { text-align: right; font-variant-numeric: tabular-nums; }
  .scorebar { display: inline-block; width: 90px; height: 9px; background: #eee; border-radius: 4px; vertical-align: middle; margin-right: .4rem; }
  .scorebar i { display: block; height: 100%; border-radius: 4px; }
  .trace { margin: .9rem 0; border: 1px solid #e0e0e8; border-radius: 6px; padding: .5rem .8rem; }
  .trace h3 { margin: 0 0 .4rem; font-size: .85rem; font-weight: 600; }
  .trace h3 code { color: #666; font-weight: 400; }
  .row { display: flex; align-items: center; height: 19px; font-size: .78rem; }
  .row .label { flex: 0 0 220px; overflow: hidden; text-overflow: ellipsis; white-space: nowrap; }
  .row .lane { flex: 1; position: relative; height: 11px; background: #f4f4f8; border-radius: 3px; }
  .row .bar { position: absolute; top: 0; height: 100%; background: #5b8def; border-radius: 3px; min-width: 2px; }
  .row .bar.failed { background: #d9534f; }
  .row .dur { flex: 0 0 80px; text-align: right; font-variant-numeric: tabular-nums; color: #555; }
  .detail { color: #888; font-size: .72rem; margin-left: 220px; overflow: hidden; text-overflow: ellipsis; white-space: nowrap; }
  .failedtag { color: #d9534f; font-weight: 600; }
  pre.operators { margin-top: .5rem; font-size: .74rem; overflow-x: auto; }
  .muted { color: #888; }
</style>
</head>
<body>
<h1>sparqlrw mediator dashboard</h1>
<p class="muted">auto-refreshes every 5s &middot; traces: newest first &middot; audited queries on disk: {{.Audited}}</p>

<h2>Endpoint health</h2>
{{if .Federation.Endpoints}}
<table>
<tr><th>endpoint</th><th>score</th><th class="num">p50 ms</th><th class="num">p95 ms</th><th class="num">error rate</th><th>breaker</th><th class="num">attempts</th><th class="num">probes</th><th>last error</th></tr>
{{range .Federation.Endpoints}}
<tr>
  <td><code>{{.Endpoint}}</code></td>
  <td><span class="scorebar"><i style="width:{{printf "%.0f" (pct .Score)}}%;background:hsl({{printf "%.0f" (hue .Score)}},65%,48%)"></i></span>{{printf "%.3f" .Score}}</td>
  <td class="num">{{printf "%.1f" .P50MS}}</td>
  <td class="num">{{printf "%.1f" .P95MS}}</td>
  <td class="num">{{printf "%.3f" .ErrorRate}}</td>
  <td>{{.Breaker}}</td>
  <td class="num">{{.Attempts}}</td>
  <td class="num">{{.Probes}}</td>
  <td class="muted">{{.LastError}}</td>
</tr>
{{end}}
</table>
{{else}}<p class="muted">no endpoints known yet</p>{{end}}

{{with .Serving}}
<h2>Serving tier</h2>
<table>
<tr><th>tenant</th><th class="num">in flight</th><th class="num">waiting</th><th class="num">admitted</th><th class="num">rejected</th><th class="num">rate/s</th><th class="num">max conc</th><th>policy</th></tr>
{{range .Tenants}}
<tr>
  <td><code>{{.Tenant}}</code></td>
  <td class="num">{{.InFlight}}</td>
  <td class="num">{{.Waiting}}</td>
  <td class="num">{{.Admitted}}</td>
  <td class="num">{{.Rejected}}</td>
  <td class="num">{{if .RatePerSec}}{{printf "%.1f" .RatePerSec}}{{else}}&infin;{{end}}</td>
  <td class="num">{{if .MaxConcurrent}}{{.MaxConcurrent}}{{else}}&infin;{{end}}</td>
  <td>{{if .Restricted}}restricted{{else}}<span class="muted">full access</span>{{end}}</td>
</tr>
{{end}}
</table>
<p class="muted">
{{with .Cache}}result cache: {{.Entries}} entries &middot; {{.Hits}} hits / {{.Misses}} misses ({{printf "%.1f" (pct .HitRate)}}% hit ratio) &middot; {{.Evictions}} evictions &middot; {{.Invalidations}} invalidations{{else}}result cache disabled{{end}}
 &middot; hedged dispatches: {{$.Federation.Hedges}} ({{$.Federation.HedgeWins}} backup wins)
</p>
{{end}}

{{with .Views}}
<h2>Materialized views</h2>
<p class="muted">{{.Hits}} hits / {{.Misses}} misses &middot; {{.Refreshes}} refreshes &middot; {{.Evictions}} evictions &middot; {{.Rows}} rows materialized &middot; {{.MinedShapes}} shapes mined</p>
{{if .Views}}
<table>
<tr><th>view</th><th>covered shape</th><th>data sets</th><th>state</th><th class="num">rows</th><th class="num">hits</th><th>refreshed</th></tr>
{{range .Views}}
<tr>
  <td><code>{{.ID}}</code></td>
  <td><code>{{range $i, $p := .Patterns}}{{if $i}} . {{end}}{{$p}}{{end}}</code></td>
  <td>{{range $i, $d := .Datasets}}{{if $i}}, {{end}}<code>{{$d}}</code>{{end}}</td>
  <td>{{if eq .State "ready"}}{{.State}}{{else}}<span class="failedtag">{{.State}}</span>{{end}}</td>
  <td class="num">{{.Rows}}</td>
  <td class="num">{{.Hits}}</td>
  <td class="muted">{{.Refreshed.Format "15:04:05"}}</td>
</tr>
{{end}}
</table>
{{else}}<p class="muted">no views materialized yet &mdash; repeat a cross-vocabulary join</p>{{end}}
{{end}}

<h2>Recent traces</h2>
{{if .Traces}}
{{range .Traces}}
<div class="trace">
  <h3>{{if .Form}}{{.Form}} {{end}}query <code>{{.ID}}</code> &middot; {{printf "%.2f" .DurationMS}} ms &middot; {{.Start}}{{if .Failed}} &middot; <span class="failedtag">failed</span>{{end}}</h3>
  {{range .Rows}}
  <div class="row">
    <span class="label" style="padding-left:{{.Indent}}px">{{.Name}}</span>
    <span class="lane"><span class="bar{{if .Failed}} failed{{end}}" style="left:{{printf "%.2f" .OffsetPct}}%;width:{{printf "%.2f" .WidthPct}}%"></span></span>
    <span class="dur">{{printf "%.2f" .DurationMS}} ms</span>
  </div>
  {{if .Detail}}<div class="detail">{{.Detail}}</div>{{end}}
  {{end}}
  {{with .Operators}}<pre class="operators">{{.}}</pre>{{end}}
</div>
{{end}}
{{else}}<p class="muted">no finished traces yet &mdash; run a query against /sparql</p>{{end}}
</body>
</html>
`))
