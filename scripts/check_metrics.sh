#!/bin/sh
# check_metrics.sh — boots the mediator binary on a free port, runs one
# federated query through /sparql, scrapes GET /metrics and asserts the
# core Prometheus series from every layer are present; then checks the
# distributed-tracing surface (traceparent round-trip into X-Trace-Id),
# the per-endpoint health scores at /api/health, that /api/stats lists
# each endpoint once, that the flight
# recorder records a slow query's trace document under -audit-dir (listed
# at /api/trace?recorded=1, replayed by scripts/replay_audit.sh), and the
# serving tier: a repeated query must hit the result cache, and a tenant
# with an exhausted quota must get a deterministic 429 with Retry-After.
# A cross-vocabulary query with explain=trace must return operator spans
# carrying estimated and actual cardinalities, and its calibration
# samples must land in sparqlrw_estimate_qerror, and a DESCRIBE's
# trace trailer must profile its description fetch as a bound-join
# operator with estimated and actual rows. A repeated cross-vocabulary
# join must be answered from a materialized view: its explain=trace
# profiles a view operator, and /api/plan names the view. A query mixing
# two vocabularies and one naming none must answer from /sparql, and
# /api/plan with targets must mark only the named data sets relevant.
# Run via `make check-metrics`.
set -eu

workdir=$(mktemp -d)
cleanup() {
	# Wait for the mediator to exit: it flushes the audit dir on the way
	# out, which would otherwise race the removal below.
	[ -n "${pid:-}" ] && kill "$pid" 2>/dev/null && wait "$pid" 2>/dev/null || true
	rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "check-metrics: building mediator..."
go build -o "$workdir/mediator" ./cmd/mediator

# A tenant with a one-token bucket that essentially never refills: its
# second request must be a deterministic 429.
cat >"$workdir/tenants.json" <<'EOF'
{"tenants": [{"id": "smoke", "keys": ["smoke-key"], "ratePerSec": 0.001, "burst": 1}]}
EOF

# Small universe: the smoke test needs a query to succeed, not scale.
# -slow-query 1ns makes every query "slow" so the flight recorder under
# -audit-dir must capture the one we run.
"$workdir/mediator" -addr 127.0.0.1:0 -persons 20 -papers 60 \
	-audit-dir "$workdir/audit" -slow-query 1ns \
	-tenants "$workdir/tenants.json" -adaptive-stats -views \
	>"$workdir/out.log" 2>"$workdir/err.log" &
pid=$!

# Wait for the startup banner and parse the resolved address from it.
base=""
for _ in $(seq 1 50); do
	base=$(sed -n 's#^mediator listening on \(http://[^/]*\)/#\1#p' "$workdir/out.log")
	[ -n "$base" ] && break
	kill -0 "$pid" 2>/dev/null || {
		echo "check-metrics: mediator exited during startup:" >&2
		cat "$workdir/err.log" >&2
		exit 1
	}
	sleep 0.2
done
[ -n "$base" ] || { echo "check-metrics: no startup banner" >&2; exit 1; }
echo "check-metrics: mediator at $base"

query='PREFIX akt:<http://www.aktors.org/ontology/portal#>
SELECT DISTINCT ?a WHERE {
  ?paper akt:has-author <http://southampton.rkbexplorer.com/id/person-00002> .
  ?paper akt:has-author ?a .
}'

# A caller-supplied W3C traceparent must round-trip: the mediator joins
# the caller's trace and echoes its trace id in X-Trace-Id.
inbound_trace="4bf92f3577b34da6a3ce929d0e0e4736"
status=$(curl -s -o "$workdir/result.json" -D "$workdir/result.hdr" -w '%{http_code}' \
	-H "traceparent: 00-$inbound_trace-00f067aa0ba902b7-01" \
	--data-urlencode "query=$query" --data-urlencode "explain=trace" \
	"$base/sparql")
[ "$status" = 200 ] || {
	echo "check-metrics: /sparql returned $status:" >&2
	cat "$workdir/result.json" >&2
	exit 1
}
grep -q '"trace"' "$workdir/result.json" || {
	echo "check-metrics: explain=trace response carries no trace member" >&2
	exit 1
}

fail=0
# The trace must be retrievable through the ring (trace ids are 32 hex:
# W3C Trace Context format). This runs before any further queries so
# the newest ring entry is still ours.
trace_id=$(curl -s "$base/api/trace?limit=1" | sed -n 's/.*"id":"\([0-9a-f]\{32\}\)".*/\1/p')
if [ -z "$trace_id" ]; then
	echo "check-metrics: /api/trace lists no traces" >&2
	fail=1
elif ! curl -sf "$base/api/trace/$trace_id" >/dev/null; then
	echo "check-metrics: /api/trace/$trace_id not retrievable" >&2
	fail=1
fi

# The inbound traceparent's trace id must be adopted end to end: echoed
# in X-Trace-Id and recorded as the query trace's id.
if ! grep -qi "^x-trace-id: $inbound_trace" "$workdir/result.hdr"; then
	echo "check-metrics: X-Trace-Id does not echo the inbound traceparent trace id" >&2
	sed -n 's/^[Xx]-[Tt]race-[Ii]d/&/p' "$workdir/result.hdr" >&2
	fail=1
fi
if [ "$trace_id" != "$inbound_trace" ]; then
	echo "check-metrics: recorded trace id $trace_id != inbound $inbound_trace" >&2
	fail=1
fi

# Error responses carry X-Trace-Id too.
err_trace=$(curl -s -D - -o /dev/null --data-urlencode "query=SELECT WHERE {" "$base/sparql" |
	sed -n 's/^[Xx]-[Tt]race-[Ii]d: *\([0-9a-f]*\).*/\1/p')
if [ -z "$err_trace" ]; then
	echo "check-metrics: 400 response carries no X-Trace-Id" >&2
	fail=1
fi

# The same query again must serve from the federated result cache.
repeat_status=$(curl -s -o /dev/null -w '%{http_code}' \
	--data-urlencode "query=$query" "$base/sparql")
[ "$repeat_status" = 200 ] || {
	echo "check-metrics: repeated /sparql query returned $repeat_status" >&2
	exit 1
}

# EXPLAIN ANALYZE: a cross-vocabulary query (decomposed into per-dataset
# fragments joined at the mediator) with explain=trace must return a trace
# whose operator spans carry both estimated and actual cardinalities, and
# the per-operator q-error.
cross_query='PREFIX akt:<http://www.aktors.org/ontology/portal#>
PREFIX m:<http://metrics.example/ontology#>
SELECT ?paper ?a ?c WHERE {
  ?paper akt:has-author <http://southampton.rkbexplorer.com/id/person-00002> .
  ?paper akt:has-author ?a .
  ?paper m:citationCount ?c .
}'
profile_status=$(curl -s -o "$workdir/profile.json" -w '%{http_code}' \
	--data-urlencode "query=$cross_query" --data-urlencode "explain=trace" \
	"$base/sparql")
[ "$profile_status" = 200 ] || {
	echo "check-metrics: explain=trace query returned $profile_status:" >&2
	cat "$workdir/profile.json" >&2
	exit 1
}
for member in '"trace":{"id":' '"estRows"' '"actualRows"' '"qError"' '"op":"fragment"' '"plan":'; do
	if ! grep -q "$member" "$workdir/profile.json"; then
		echo "check-metrics: explain=trace response misses $member" >&2
		fail=1
	fi
done
# The same profile must be retrievable as the human-readable table.
profile_trace=$(sed -n 's/.*"trace":{"id":"\([0-9a-f]\{32\}\)".*/\1/p' "$workdir/profile.json")
if [ -z "$profile_trace" ]; then
	echo "check-metrics: trace member names no id" >&2
	fail=1
elif ! curl -sf "$base/api/trace/$profile_trace?format=text" | grep -q 'EXPLAIN ANALYZE'; then
	echo "check-metrics: /api/trace/$profile_trace?format=text is not the operator table" >&2
	fail=1
fi

# A DESCRIBE's description fetch is its plan's bound-join stage: the graph
# document's "# trace:" trailer must profile it with estimated and actual
# rows (span attributes serialise in key order).
describe_status=$(curl -s -o "$workdir/describe.nt" -w '%{http_code}' \
	-H 'Accept: application/n-triples' \
	--data-urlencode 'query=DESCRIBE <http://southampton.rkbexplorer.com/id/person-00002>' \
	--data-urlencode "explain=trace" "$base/sparql")
[ "$describe_status" = 200 ] || {
	echo "check-metrics: DESCRIBE with explain=trace returned $describe_status:" >&2
	cat "$workdir/describe.nt" >&2
	exit 1
}
if ! grep '^# trace: ' "$workdir/describe.nt" |
	grep -q '"attrs":{"actualRows":[1-9][^}]*"estRows":[0-9][^}]*"op":"bound-join"'; then
	echo "check-metrics: DESCRIBE trace trailer has no bound-join operator with estimated and actual rows:" >&2
	cat "$workdir/describe.nt" >&2
	fail=1
fi

# No source ontology is asked of a query: one mixing KISTI and AKT
# patterns, and one whose pattern names no vocabulary at all, must both
# answer from /sparql.
for q in 'PREFIX akt:<http://www.aktors.org/ontology/portal#>
PREFIX k:<http://www.kisti.re.kr/isrl/ResearchRefOntology#>
SELECT ?paper ?a WHERE { ?paper k:title ?t . ?paper k:year ?y . ?paper akt:has-author ?a }' \
	'SELECT ?p ?o WHERE { <http://southampton.rkbexplorer.com/id/paper-00001> ?p ?o }'; do
	qstatus=$(curl -s -o "$workdir/vocab.json" -w '%{http_code}' --data-urlencode "query=$q" "$base/sparql")
	if [ "$qstatus" != 200 ]; then
		echo "check-metrics: /sparql returned $qstatus for:" >&2
		echo "$q" >&2
		cat "$workdir/vocab.json" >&2
		fail=1
	fi
done

# /api/plan takes targets as /sparql does: the plan of the Figure-1 query
# over KISTI alone marks KISTI, and no other data set, relevant.
printf '{"query":"%s","targets":["http://kisti.rkbexplorer.com/id/void"]}' "$(printf '%s' "$query" | tr '\n' ' ')" \
	>"$workdir/targets-plan-req.json"
curl -s -H 'Content-Type: application/json' --data-binary @"$workdir/targets-plan-req.json" \
	"$base/api/plan" >"$workdir/targets-plan.json"
relevant=$(grep -o '"dataset":"[^"]*","endpoint":"[^"]*","relevant":true' "$workdir/targets-plan.json" |
	sed 's/"dataset":"\([^"]*\)".*/\1/')
if [ "$relevant" != "http://kisti.rkbexplorer.com/id/void" ]; then
	echo "check-metrics: /api/plan with targets marks [$relevant] relevant, want KISTI alone:" >&2
	cat "$workdir/targets-plan.json" >&2
	fail=1
fi

# The smoke tenant's single token: first request passes, the second is
# a deterministic 429 carrying Retry-After and the JSON error document.
first=$(curl -s -o /dev/null -w '%{http_code}' -H 'X-API-Key: smoke-key' \
	--data-urlencode "query=$query" "$base/sparql")
[ "$first" = 200 ] || {
	echo "check-metrics: smoke tenant's first request returned $first" >&2
	exit 1
}
quota_status=$(curl -s -o "$workdir/429.json" -D "$workdir/429.hdr" -w '%{http_code}' \
	-H 'X-API-Key: smoke-key' --data-urlencode "query=$query" "$base/sparql")
[ "$quota_status" = 429 ] || {
	echo "check-metrics: exhausted quota returned $quota_status, want 429" >&2
	exit 1
}
grep -qi '^retry-after: [0-9]' "$workdir/429.hdr" || {
	echo "check-metrics: 429 response carries no Retry-After header" >&2
	exit 1
}
grep -q '"error"' "$workdir/429.json" || {
	echo "check-metrics: 429 response is not the JSON error document" >&2
	exit 1
}

# Materialized views: repeats of the cross-vocabulary join (with renamed
# variables, so the result cache's text-keyed entries never absorb them
# while the view tier's canonical signature still matches) must get the
# shape mined and materialized; a further repeat must then be answered
# from the view's rows — its explain=trace profiling the view operator,
# its /api/plan naming the view — and counted as a view hit.
cross_repeat() {
	sed "s/?paper/?p$1/g; s/?a\\b/?x$1/g; s/?c\\b/?y$1/g" <<EOF
$cross_query
EOF
}
for i in 1 2; do
	vstatus=$(curl -s -o /dev/null -w '%{http_code}' \
		--data-urlencode "query=$(cross_repeat $i)" "$base/sparql")
	[ "$vstatus" = 200 ] || {
		echo "check-metrics: cross-vocabulary repeat $i returned $vstatus" >&2
		exit 1
	}
done
view_ready=""
for _ in $(seq 1 50); do
	curl -s "$base/api/views" >"$workdir/views.json"
	if grep -q '"state":"ready"' "$workdir/views.json"; then
		view_ready=1
		break
	fi
	sleep 0.2
done
if [ -z "$view_ready" ]; then
	echo "check-metrics: /api/views never listed a ready view:" >&2
	cat "$workdir/views.json" >&2
	fail=1
else
	vstatus=$(curl -s -o "$workdir/view.json" -w '%{http_code}' \
		--data-urlencode "query=$(cross_repeat 3)" --data-urlencode "explain=trace" "$base/sparql")
	[ "$vstatus" = 200 ] || {
		echo "check-metrics: view-answered query returned $vstatus" >&2
		exit 1
	}
	if ! grep -q '"op":"view"' "$workdir/view.json"; then
		echo "check-metrics: explain=trace of the view-answered query has no view operator:" >&2
		cat "$workdir/view.json" >&2
		fail=1
	fi
	printf '{"query":"%s"}' "$(cross_repeat 3 | tr '\n' ' ')" >"$workdir/view-plan-req.json"
	curl -s -H 'Content-Type: application/json' --data-binary @"$workdir/view-plan-req.json" \
		"$base/api/plan" >"$workdir/view-plan.json"
	if ! grep -q '"view":"v[0-9]' "$workdir/view-plan.json"; then
		echo "check-metrics: /api/plan of the view-answered query names no view:" >&2
		cat "$workdir/view-plan.json" >&2
		fail=1
	fi
fi

curl -s "$base/metrics" >"$workdir/metrics.txt"

# series-name prefix -> must appear as a sample line with a value
for series in \
	sparqlrw_queries_total \
	sparqlrw_query_seconds_count \
	sparqlrw_query_ttfs_seconds_count \
	sparqlrw_solutions_streamed_total \
	sparqlrw_inflight_queries \
	sparqlrw_http_requests_total \
	sparqlrw_plan_plans_total \
	sparqlrw_plan_cache_misses_total \
	sparqlrw_federate_attempts_total \
	sparqlrw_federate_request_seconds_count \
	sparqlrw_federate_breaker_state \
	sparqlrw_federate_hedges_total \
	sparqlrw_federate_hedge_wins_total \
	sparqlrw_serve_admitted_total \
	sparqlrw_serve_rejected_total \
	sparqlrw_serve_inflight \
	sparqlrw_result_cache_hits_total \
	sparqlrw_result_cache_misses_total \
	sparqlrw_result_cache_entries \
	sparqlrw_estimate_qerror_count \
	sparqlrw_view_hits_total \
	sparqlrw_view_misses_total \
	sparqlrw_view_refreshes_total \
	sparqlrw_view_rows \
	; do
	if ! grep -q "^$series" "$workdir/metrics.txt"; then
		echo "check-metrics: MISSING series $series" >&2
		fail=1
	fi
done

# The query ran, so the select counter must be non-zero.
if ! grep -q '^sparqlrw_queries_total{form="select"} [1-9]' "$workdir/metrics.txt"; then
	echo "check-metrics: sparqlrw_queries_total{form=\"select\"} not incremented" >&2
	fail=1
fi

# The repeated query must have hit the result cache.
if ! grep -q '^sparqlrw_result_cache_hits_total [1-9]' "$workdir/metrics.txt"; then
	echo "check-metrics: sparqlrw_result_cache_hits_total not incremented by the repeated query" >&2
	fail=1
fi

# The view-answered repeat must be counted as a view hit.
if ! grep -q '^sparqlrw_view_hits_total [1-9]' "$workdir/metrics.txt"; then
	echo "check-metrics: sparqlrw_view_hits_total not incremented by the view-answered query" >&2
	fail=1
fi

# The shed request must be counted against the smoke tenant.
if ! grep -q '^sparqlrw_serve_rejected_total{tenant="smoke",reason="rate"} [1-9]' "$workdir/metrics.txt"; then
	echo "check-metrics: sparqlrw_serve_rejected_total{tenant=\"smoke\"} not incremented by the 429" >&2
	fail=1
fi

# /api/health must score every configured endpoint (three generated
# repositories) with the health fields present.
curl -s "$base/api/health" >"$workdir/health.json"
n_eps=$(grep -o '"endpoint":' "$workdir/health.json" | wc -l)
if [ "$n_eps" -lt 3 ]; then
	echo "check-metrics: /api/health lists $n_eps endpoints, want 3:" >&2
	cat "$workdir/health.json" >&2
	fail=1
fi
for field in '"score"' '"p95Ms"' '"errorRate"' '"breaker"' '"attempts"'; do
	if ! grep -q "$field" "$workdir/health.json"; then
		echo "check-metrics: /api/health misses $field" >&2
		fail=1
	fi
done

# /api/stats is the one introspection document: each endpoint is one row
# of federation.endpoints, and no second per-endpoint list sits beside it.
curl -s "$base/api/stats" >"$workdir/stats.json"
if grep -q '"health":' "$workdir/stats.json"; then
	echo "check-metrics: /api/stats carries a \"health\" member beside federation.endpoints" >&2
	fail=1
fi
for ep in $(grep -o '"endpoint":"[^"]*"' "$workdir/health.json"); do
	n=$(grep -oF "$ep" "$workdir/stats.json" | wc -l)
	if [ "$n" -ne 1 ]; then
		echo "check-metrics: /api/stats lists $ep $n times, want once" >&2
		fail=1
	fi
done

# The per-endpoint counts are exposed from the endpoint table as counters.
for count in attempts successes failures retries rejected solutions; do
	if ! grep -q "^# TYPE sparqlrw_federate_${count}_total counter\$" "$workdir/metrics.txt"; then
		echo "check-metrics: MISSING counter family sparqlrw_federate_${count}_total" >&2
		fail=1
	fi
done
for series in sparqlrw_endpoint_health_score sparqlrw_endpoint_latency_p50_seconds \
	sparqlrw_endpoint_latency_p95_seconds sparqlrw_endpoint_error_rate; do
	if ! grep -q "^$series" "$workdir/metrics.txt"; then
		echo "check-metrics: MISSING health series $series" >&2
		fail=1
	fi
done

# The -slow-query 1ns threshold makes every query slow, so the flight
# recorder must have recorded ours: on disk, via /api/trace?recorded=1
# (marked slow), and replayable by scripts/replay_audit.sh.
if ! ls "$workdir"/audit/audit-*.jsonl >/dev/null 2>&1; then
	echo "check-metrics: no audit segment written under -audit-dir" >&2
	fail=1
fi
curl -s "$base/api/trace?recorded=1" >"$workdir/audit.json"
if ! grep -q "{\"id\":\"$inbound_trace\",.*\"slow\":true" "$workdir/audit.json"; then
	echo "check-metrics: /api/trace?recorded=1 misses the slow query (trace $inbound_trace):" >&2
	cat "$workdir/audit.json" >&2
	fail=1
fi
cat "$workdir"/audit/audit-*.jsonl | grep "^{\"id\":\"$inbound_trace\"," >"$workdir/inbound.jsonl" || true
if ! ./scripts/replay_audit.sh "$workdir/inbound.jsonl" "$base" >"$workdir/replay.txt" 2>&1 ||
	! grep -q '^replay_audit: 1/1 replays returned 200$' "$workdir/replay.txt"; then
	echo "check-metrics: replaying the recorded inbound query did not return 200:" >&2
	cat "$workdir/replay.txt" >&2
	fail=1
fi

[ "$fail" = 0 ] || exit 1
echo "check-metrics: all core series present; trace $trace_id round-tripped; $n_eps endpoints scored; slow query recorded and replayed; result cache hit; quota exhausted to a 429 with Retry-After; explain=trace profiled trace $profile_trace and a DESCRIBE's bound join; materialized view answered a repeat"
