package plan

import (
	"strings"

	"sparqlrw/internal/sparql"
)

// ShardQuery splits a query carrying a large VALUES block into batched
// sub-queries: shard i is a clone of q that keeps rows [i*batch,
// (i+1)*batch) of the biggest block and everything else verbatim, so the
// shards' result sets union back to the unsharded answer. A query with no
// shardable VALUES block bigger than batch (or with sharding disabled) is
// its own single shard, and shardVar is empty. The per-BGP decomposer
// batches bound-join bindings into a VALUES block and cuts it into
// endpoint-sized sub-queries with the same function.
//
// Sharding is semantics-preserving only when the union of shard results
// equals the unsharded result: queries with LIMIT/OFFSET are never
// sharded (each shard would apply the slice locally), and only VALUES
// blocks at the top level of the WHERE group qualify (splitting a block
// inside OPTIONAL/UNION would change which rows leave variables unbound).
func ShardQuery(q *sparql.Query, batch, maxShards int) (shards []*sparql.Query, shardVar string) {
	if batch <= 0 || q.Limit >= 0 || q.Offset >= 0 {
		return []*sparql.Query{q}, ""
	}
	at, target := largestInlineData(q)
	if target == nil || len(target.Rows) <= batch {
		return []*sparql.Query{q}, ""
	}
	rows := len(target.Rows)
	n := (rows + batch - 1) / batch
	if maxShards > 0 && n > maxShards {
		n = maxShards
		batch = (rows + n - 1) / n
		n = (rows + batch - 1) / batch
	}
	for s := 0; s < n; s++ {
		clone := q.Clone()
		d := clone.Where.Elements[at].(*sparql.InlineData)
		d.Rows = d.Rows[s*batch : min((s+1)*batch, rows)]
		shards = append(shards, clone)
	}
	return shards, "?" + strings.Join(target.Vars, " ?")
}

// largestInlineData returns the WHERE group's top-level VALUES block with
// the most rows and its position among the group's elements, which a clone
// keeps (-1, nil when the query has none at top level).
func largestInlineData(q *sparql.Query) (int, *sparql.InlineData) {
	best, at := (*sparql.InlineData)(nil), -1
	if q.Where == nil {
		return at, best
	}
	for i, el := range q.Where.Elements {
		if d, ok := el.(*sparql.InlineData); ok && (best == nil || len(d.Rows) > len(best.Rows)) {
			best, at = d, i
		}
	}
	return at, best
}
