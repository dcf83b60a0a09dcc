package eval

import (
	"math"
	"slices"

	"sparqlrw/internal/rdf"
)

// pos is one position of a compiled triple pattern: a ground term, or the
// slot its variable (or blank-node pseudo-variable) binds.
type pos struct {
	term rdf.Term
	slot int // -1 for a ground term
}

// in resolves the position under a row. An unbound slot holds the zero
// Term, which is the store's wildcard, so no case distinction is needed.
func (p pos) in(r Row) rdf.Term {
	if p.slot < 0 {
		return p.term
	}
	return r[p.slot]
}

// bgpOp matches a basic graph pattern by backtracking over index lookups.
// It binds the slots of the row it is given in place and unbinds them when
// it backtracks, so a match costs no allocation; the row it yields is the
// caller's row and is complete only during the yield.
type bgpOp struct {
	p    *plan
	pats [][3]pos
	vars []int // the distinct slots the patterns mention
	// orders caches the pattern order per set of already-bound slots (a
	// bit per entry of vars), so seeding the same BGP with many rows of
	// the same shape — a VALUES shard of a bound join — plans it once.
	orders map[uint64][]int
	// levels[i] is the store callback of depth i, built once at compile
	// time; order, row, yield and stopped are the state of the current
	// seeded run those callbacks work on. A BGP is never re-entered while
	// it runs: its yield only feeds operators further up the tree.
	levels  []func(rdf.Triple) bool
	order   []int
	row     Row
	yield   func(Row) bool
	stopped bool
}

func (p *plan) buildBGP(patterns []rdf.Triple) *bgpOp {
	b := &bgpOp{p: p, orders: map[uint64][]int{}}
	for _, t := range patterns {
		var cp [3]pos
		for k, term := range [3]rdf.Term{t.S, t.P, t.O} {
			cp[k] = pos{term: term, slot: -1}
			if key, ok := bindingKey(term); ok {
				cp[k].slot = p.slot(key)
				if !slices.Contains(b.vars, cp[k].slot) {
					b.vars = append(b.vars, cp[k].slot)
				}
			}
		}
		b.pats = append(b.pats, cp)
		b.levels = append(b.levels, b.level(len(b.levels)))
	}
	return b
}

func (b *bgpOp) run(yield func(Row) bool) bool {
	return b.seeded(b.p.newRow(), yield)
}

// seeded yields every extension of seed that matches all patterns. It
// reports false when the consumer stopped the iteration.
func (b *bgpOp) seeded(seed Row, yield func(Row) bool) bool {
	b.order, b.row, b.yield, b.stopped = b.orderFor(seed), seed, yield, false
	b.match(0)
	return !b.stopped
}

// match looks up pattern order[i] under the bindings made so far; the
// level callback binds each candidate and recurses.
func (b *bgpOp) match(i int) {
	if i == len(b.order) {
		b.stopped = !b.yield(b.row)
		return
	}
	pat := &b.pats[b.order[i]]
	b.p.eng.Store.Match(rdf.Triple{S: pat[0].in(b.row), P: pat[1].in(b.row), O: pat[2].in(b.row)}, b.levels[i])
}

// level builds the store callback of depth i: bind the pattern's unbound
// slots to the data triple (failing when one variable would need two
// distinct values), match the remaining patterns, unbind.
func (b *bgpOp) level(i int) func(rdf.Triple) bool {
	return func(t rdf.Triple) bool {
		pat, row := &b.pats[b.order[i]], b.row
		var bound [3]int
		n, ok := 0, true
		for k, d := range [3]rdf.Term{t.S, t.P, t.O} {
			s := pat[k].slot
			if s < 0 {
				continue // ground: the store matched it
			}
			if row[s].Kind == rdf.KindAny {
				row[s] = d
				bound[n] = s
				n++
			} else if row[s] != d {
				ok = false
				break
			}
		}
		if ok {
			b.match(i + 1)
		}
		for _, s := range bound[:n] {
			row[s] = rdf.Term{}
		}
		return !b.stopped
	}
}

// orderFor returns the pattern order for a seed, planning it the first
// time a set of bound slots is seen. Slots past the 64th do not take part
// in the cache key: they are planned as the first seed of the key had
// them, which can cost speed but not answers.
func (b *bgpOp) orderFor(seed Row) []int {
	var mask uint64
	for j, s := range b.vars {
		if j < 64 && seed[s].Kind != rdf.KindAny {
			mask |= 1 << j
		}
	}
	order, ok := b.orders[mask]
	if !ok {
		order = b.reorder(seed)
		b.orders[mask] = order
	}
	return order
}

// reorder greedily picks, at each step, the pattern with the lowest
// estimated cardinality given the slots bound so far — the classic
// selectivity heuristic the paper cites (Stocker et al., WWW'08). With
// reordering disabled the patterns keep their written order.
func (b *bgpOp) reorder(seed Row) []int {
	remaining := make([]int, len(b.pats))
	for i := range remaining {
		remaining[i] = i
	}
	if b.p.eng.DisableJoinReorder {
		return remaining
	}
	bound := make([]bool, len(seed))
	for _, s := range b.vars {
		bound[s] = seed[s].Kind != rdf.KindAny
	}
	order := make([]int, 0, len(b.pats))
	for len(remaining) > 0 {
		best, bestCost := 0, math.MaxInt
		for i, pi := range remaining {
			if cost := b.estimate(&b.pats[pi], bound); cost < bestCost {
				best, bestCost = i, cost
			}
		}
		chosen := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		order = append(order, chosen)
		for _, p := range b.pats[chosen] {
			if p.slot >= 0 {
				bound[p.slot] = true
			}
		}
	}
	return order
}

// estimate scores a pattern: lower is more selective. Ground or already-
// bound positions count as bound; the store's predicate statistics break
// ties between patterns with equal bound shape.
func (b *bgpOp) estimate(pat *[3]pos, bound []bool) int {
	isBound := func(p pos) bool { return p.slot < 0 || bound[p.slot] }
	sb, pb, ob := isBound(pat[0]), isBound(pat[1]), isBound(pat[2])
	boundCount := 0
	for _, x := range [3]bool{sb, pb, ob} {
		if x {
			boundCount++
		}
	}
	// Base cost decreases with more bound positions; subject-bound shapes
	// are cheaper than object-bound which are cheaper than predicate-only.
	base := (3 - boundCount) * 1_000_000
	st := b.p.eng.Store
	if pb && pat[1].term.Kind == rdf.KindIRI {
		base += st.PredicateCount(pat[1].term)
	} else {
		base += st.Size()
	}
	if sb {
		base -= 500_000
	}
	if ob {
		base -= 250_000
	}
	return max(base, 0)
}
