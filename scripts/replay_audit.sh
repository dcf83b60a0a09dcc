#!/bin/sh
# replay_audit.sh — re-runs queries captured by the flight recorder
# against a live mediator, so a slow or failed query pulled from the
# audit log can be reproduced (and its fresh trace compared with the
# recorded one). Each line of the log is one trace document, as
# GET /api/trace/{id} serves it: the query is its root span's "query"
# attribute, and a failed query's root carries an "error".
#
# Usage:
#   scripts/replay_audit.sh <audit-dir|audit-file.jsonl> [mediator-base-url]
#
#   scripts/replay_audit.sh /var/lib/sparqlrw/audit http://localhost:8080
#   scripts/replay_audit.sh audit/audit-3.jsonl            # default localhost:8080
#
# Each recorded query is POSTed to <base>/sparql; the output
# lists the recorded trace id, the recorded duration, the replay status,
# the replay duration and the fresh X-Trace-Id, one line per query.
# Requires curl and python3 (for JSONL field extraction).
set -eu

src=${1:?usage: replay_audit.sh <audit-dir|audit-file.jsonl> [mediator-base-url]}
base=${2:-http://localhost:8080}

if [ -d "$src" ]; then
	set -- "$src"/audit-*.jsonl
	[ -e "$1" ] || { echo "replay_audit: no audit-*.jsonl under $src" >&2; exit 1; }
else
	set -- "$src"
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# Pull (id, durationMs, kind, query) per record; tab-separated with the
# query URL-encoded so multi-line SPARQL survives the shell.
cat "$@" | python3 -c '
import json, sys, urllib.parse
for line in sys.stdin:
    line = line.strip()
    if not line:
        continue
    try:
        rec = json.loads(line)
    except json.JSONDecodeError:
        continue
    attrs = rec.get("root", {}).get("attrs", {})
    print("\t".join([
        rec.get("id", "-"),
        str(rec.get("durationMs", "-")),
        "error" if attrs.get("error") else "slow",
        urllib.parse.quote(attrs.get("query", ""), safe=""),
    ]))
' >"$tmp/records.tsv"

total=0
ok=0
printf '%-34s %-6s %12s   %-6s %12s  %s\n' "recorded trace" "kind" "recorded ms" "status" "replay ms" "fresh trace"
while IFS="$(printf '\t')" read -r trace_id dur_ms kind query_enc; do
	[ -n "$query_enc" ] || continue
	total=$((total + 1))
	start=$(date +%s%N 2>/dev/null || echo 0)
	status=$(curl -s -o /dev/null -D "$tmp/hdr" -w '%{http_code}' \
		--data "query=$query_enc" "$base/sparql" || echo 000)
	end=$(date +%s%N 2>/dev/null || echo 0)
	replay_ms=$(( (end - start) / 1000000 ))
	fresh=$(sed -n 's/^[Xx]-[Tt]race-[Ii]d: *\([0-9a-f]*\).*/\1/p' "$tmp/hdr" | head -1)
	[ "$status" = 200 ] && ok=$((ok + 1))
	printf '%-34s %-6s %12s   %-6s %12s  %s\n' \
		"$trace_id" "$kind" "$dur_ms" "$status" "$replay_ms" "${fresh:--}"
done <"$tmp/records.tsv"

echo "replay_audit: $ok/$total replays returned 200"
[ "$ok" = "$total" ]
