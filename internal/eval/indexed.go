package eval

import (
	"slices"
	"sync"
)

// MaxHeldRows caps the rows the mediator keeps past the request that
// fetched them: one result-cache entry, or one materialized view, whose
// shape is disabled when its estimate or its build exceeds the cap. A
// larger answer is streamed to its reader and never held. The largest
// view of the example federation, every paper's authors (?paper
// akt:has-author ?a), holds 3 885 rows, but its voiD estimate over
// Southampton and KISTI is 13 938: the cap must clear estimates, not only
// answers.
const MaxHeldRows = 50000

// Indexed are rows that outlive a query — a materialized view's build —
// never written after they are made, and the hash indexes bound joins
// probe them through: one a column list, each built by its first probe,
// under the keys a hash join buckets by (AppendRowKey). A probe reads only
// the rows a join's keys match, not all of them.
type Indexed struct {
	RowBuf
	mu      sync.Mutex
	indexes []*rowIndex
}

// rowIndex buckets the rows by their cells at cols.
type rowIndex struct {
	cols    []int
	buckets map[string][]int32
}

// index returns the rows' index on cols, building it on first use.
func (x *Indexed) index(cols []int) *rowIndex {
	x.mu.Lock()
	defer x.mu.Unlock()
	if i := slices.IndexFunc(x.indexes, func(ix *rowIndex) bool { return slices.Equal(ix.cols, cols) }); i >= 0 {
		return x.indexes[i]
	}
	ix := &rowIndex{cols: slices.Clone(cols), buckets: make(map[string][]int32)}
	key := make(Row, len(cols))
	var buf []byte
	for i := range x.N {
		row := x.Row(i)
		for j, c := range cols {
			key[j] = row[c]
		}
		buf = AppendRowKey(buf[:0], key)
		ix.buckets[string(buf)] = append(ix.buckets[string(buf)], int32(i))
	}
	x.indexes = append(x.indexes, ix)
	return ix
}

// Probe yields, each once, the rows whose cells at cols equal some row of
// keys (keys' j-th column against the rows' column cols[j]), however often
// that key repeats, and reports whether yield asked for more.
func (x *Indexed) Probe(cols []int, keys *RowBuf, yield func(Row) bool) bool {
	ix := x.index(cols)
	var seen []uint64 // a bit per row: the first row of each bucket yielded
	var buf [128]byte
	for i := range keys.N {
		bucket := ix.buckets[string(AppendRowKey(buf[:0], keys.Row(i)))]
		if len(bucket) == 0 {
			continue
		}
		if seen == nil {
			seen = make([]uint64, (x.N+63)/64)
		}
		first := bucket[0]
		if seen[first/64]&(1<<(first%64)) != 0 {
			continue
		}
		seen[first/64] |= 1 << (first % 64)
		for _, j := range bucket {
			if !yield(x.Row(int(j))) {
				return false
			}
		}
	}
	return true
}
