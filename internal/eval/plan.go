package eval

import (
	"context"
	"fmt"
	"iter"
	"slices"
	"sort"
	"strings"

	"sparqlrw/internal/algebra"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
)

// Row is a positional solution: one term per slot, the zero Term meaning
// unbound. Inside the evaluator a row has one slot per variable of the
// compiled query; SelectRows hands out rows with one slot per projected
// variable.
type Row = []rdf.Term

// plan is one query's algebra compiled once: every variable (and every
// blank-node pseudo-variable, under its "_:" key) gets a slot, and every
// algebra node becomes an operator over rows of that width. A plan holds
// the working state of its operators, so it serves one evaluation at a
// time.
type plan struct {
	eng   Engine         // a copy, so an engine built for one call need not escape
	slots map[string]int // binding key → slot
	names []string       // slot → binding key
	root  op
	err   error // the first failure: a node build cannot compile, or a remote leaf's
	// ctx is what a plan over remote leaves runs under (see Open).
	ctx       context.Context
	leaves    int   // remote leaves built so far: the stage of an operator above them
	projected int64 // rows into the projection, the input of the final stage
	// asked records the slots build asks for while recording is positive:
	// the slots a hash join's right operand can bind are those its build
	// asked for.
	asked     []int
	recording int
}

// op is a compiled algebra node. run pushes each of the node's solutions
// into yield and reports false when the consumer stopped the iteration.
// A yielded row is valid only during the yield — the producer reuses it
// for the next solution — so an operator that retains rows copies them.
type op interface {
	run(yield func(Row) bool) bool
}

func (e *Engine) compile(a algebra.Op) (*plan, error) {
	p := &plan{eng: *e, slots: map[string]int{}, names: make([]string, 0, 8)}
	p.root = p.build(a)
	return p, p.err
}

func (p *plan) slot(key string) int {
	s, ok := p.slots[key]
	if !ok {
		s = len(p.names)
		p.slots[key] = s
		p.names = append(p.names, key)
	}
	if p.recording > 0 {
		if p.asked == nil {
			p.asked = make([]int, 0, 8)
		}
		p.asked = append(p.asked, s)
	}
	return s
}

func (p *plan) newRow() Row { return make(Row, len(p.names)) }

// rows runs the plan lazily, row[i] binding vars[i].
func (p *plan) rows(vars []string) iter.Seq[Row] {
	from := make([]int, len(vars))
	for i, v := range vars {
		from[i] = p.slot(v)
	}
	return func(yield func(Row) bool) {
		out := make(Row, len(vars))
		p.root.run(func(r Row) bool {
			for i, s := range from {
				out[i] = r[s]
			}
			return yield(out)
		})
	}
}

// RowSolution is the boundary adapter from a positional row (r[i] binding
// names[i]) to the map form the public callers use: a fresh map of the
// bound slots.
func RowSolution(names []string, r Row) Solution {
	sol := make(Solution, len(r))
	for s, t := range r {
		if t.Kind != rdf.KindAny {
			sol[names[s]] = t
		}
	}
	return sol
}

// solutions drains the plan into independent maps.
func (p *plan) solutions() []Solution {
	var out []Solution
	p.root.run(func(r Row) bool {
		out = append(out, RowSolution(p.names, r))
		return true
	})
	return out
}

// frame lets FILTER and ORDER BY expressions read a row by variable name.
type frame struct {
	p   *plan
	row Row
}

func (f *frame) lookup(key string) (rdf.Term, bool) {
	s, ok := f.p.slots[key]
	if !ok {
		return rdf.Term{}, false
	}
	return f.row[s], f.row[s].Kind != rdf.KindAny
}

// build compiles one algebra node. A node it does not know makes the
// plan unusable: the error is kept for compile to return.
func (p *plan) build(a algebra.Op) op {
	switch o := a.(type) {
	case *algebra.Unit:
		return unitOp{p}
	case *algebra.BGP:
		return p.buildBGP(o.Patterns)
	case *algebra.Table:
		t := &tableOp{p: p, rows: o.Rows}
		for _, v := range o.Vars {
			t.slots = append(t.slots, p.slot(v))
		}
		return t
	case *algebra.Join:
		// A BGP operand is matched by index nested loops seeded, in place,
		// by each row of the other side. Join is commutative, so a VALUES
		// table seeds a BGP written on either side of it — the evaluation
		// sharded federation sub-queries rely on.
		lhs, rhs := o.L, o.R
		if _, ok := lhs.(*algebra.BGP); ok {
			if _, ok := rhs.(*algebra.Table); ok {
				lhs, rhs = rhs, lhs
			}
		}
		if b, ok := rhs.(*algebra.BGP); ok {
			return &seedJoinOp{l: p.build(lhs), r: p.buildBGP(b.Patterns)}
		}
		j := &hashJoinOp{p: p, l: p.build(lhs)}
		from := len(p.asked)
		p.recording++
		j.r = p.build(rhs)
		p.recording--
		j.rslots = p.asked[from:]
		return j
	case *algebra.Remote: // built under Open, which gives the plan its context
		p.leaves++
		r := &remoteOp{p: p, src: o.Source.(Remote)}
		r.slots = r.few[:0]
		for _, v := range o.Vars {
			r.slots = append(r.slots, p.slot(v))
		}
		return r
	case *algebra.LeftJoin:
		lj := &leftJoinOp{p: p, l: p.build(o.L), expr: o.Expr}
		if b, ok := o.R.(*algebra.BGP); ok {
			lj.bgp = p.buildBGP(b.Patterns)
		} else {
			lj.r = p.build(o.R)
		}
		return lj
	case *algebra.Union:
		return &unionOp{p.build(o.L), p.build(o.R)}
	case *algebra.Filter:
		in := p.build(o.Input)
		return &filterOp{p: p, in: in, expr: o.Expr, stage: int64(p.leaves - 1)}
	case *algebra.Project:
		pr := &projectOp{p: p, in: p.build(o.Input), keep: make([]int, 0, len(o.Vars))}
		if o.Star {
			// Every variable of the input, never a blank-node pseudo-variable.
			for s, name := range p.names {
				if !strings.HasPrefix(name, "_:") {
					pr.keep = append(pr.keep, s)
				}
			}
		}
		for _, v := range o.Vars {
			pr.keep = append(pr.keep, p.slot(v))
		}
		return pr
	case *algebra.Distinct:
		return &distinctOp{p.build(o.Input)}
	case *algebra.Reduced: // duplicate elimination is a legal REDUCED
		return &distinctOp{p.build(o.Input)}
	case *algebra.OrderBy:
		return &orderOp{p: p, in: p.build(o.Input), conds: o.Conds}
	case *algebra.Slice:
		return &sliceOp{in: p.build(o.Input), limit: o.Limit, offset: o.Offset}
	default:
		p.err = fmt.Errorf("eval: unsupported algebra node %T", a)
		return unitOp{p}
	}
}

// unitOp is the empty pattern: one solution binding nothing.
type unitOp struct{ p *plan }

func (u unitOp) run(yield func(Row) bool) bool { return yield(u.p.newRow()) }

// tableOp is a VALUES block; an UNDEF cell is already the zero Term.
type tableOp struct {
	p     *plan
	slots []int
	rows  [][]rdf.Term
}

func (t *tableOp) run(yield func(Row) bool) bool {
	out := t.p.newRow()
	for _, cells := range t.rows {
		for i, s := range t.slots {
			out[s] = rdf.Term{}
			if i < len(cells) {
				out[s] = cells[i]
			}
		}
		if !yield(out) {
			return false
		}
	}
	return true
}

// seedJoinOp joins with a BGP right operand: each left row seeds the
// pattern matching, which extends it in place.
type seedJoinOp struct {
	l op
	r *bgpOp
}

func (j *seedJoinOp) run(yield func(Row) bool) bool {
	return j.l.run(func(l Row) bool { return j.r.seeded(l, yield) })
}

type unionOp struct{ l, r op }

func (u *unionOp) run(yield func(Row) bool) bool { return u.l.run(yield) && u.r.run(yield) }

type filterOp struct {
	p    *plan
	in   op
	expr sparql.Expression
	// The profile of a plan over remote leaves: the leaves below, less
	// one, and the rows in and out.
	stage, seen, kept int64
}

func (f *filterOp) run(yield func(Row) bool) bool {
	fr := &frame{p: f.p}
	f.seen, f.kept = 0, 0
	defer f.p.profile("filter", "filter", f.stage, &f.seen, &f.kept)()
	return f.in.run(func(r Row) bool {
		// SPARQL FILTER error semantics: an erroring expression excludes
		// the row rather than failing the query.
		f.seen++
		fr.row = r
		if ok, err := evalBool(f.expr, fr, f.p.eng.Funcs); err != nil || !ok {
			return true
		}
		f.kept++
		return yield(r)
	})
}

// projectOp copies the kept slots into a row of its own, so everything
// else (blank-node pseudo-variables included) reads as unbound above it.
type projectOp struct {
	p    *plan
	in   op
	keep []int
}

func (o *projectOp) run(yield func(Row) bool) bool {
	out := o.p.newRow()
	return o.in.run(func(r Row) bool {
		o.p.projected++
		for _, s := range o.keep {
			out[s] = r[s]
		}
		return yield(out)
	})
}

// distinctOp emits each row the first time its key — the terms in slot
// order — appears. Only the keys are retained, so memory grows with the
// distinct rows' keys while results still flow incrementally.
type distinctOp struct{ in op }

func (d *distinctOp) run(yield func(Row) bool) bool {
	var seen KeySet
	return d.in.run(func(r Row) bool { return !seen.AddRow(r) || yield(r) })
}

type sliceOp struct {
	in            op
	limit, offset int
}

func (s *sliceOp) run(yield func(Row) bool) bool {
	if s.limit == 0 {
		return true
	}
	skip, left, more := s.offset, s.limit, true
	done := s.in.run(func(r Row) bool {
		if skip > 0 {
			skip--
			return true
		}
		more = yield(r)
		left--
		return more && left != 0 // LIMIT satisfied: stop upstream work
	})
	return more && (done || left == 0)
}

// RowBuf holds rows of one width back to back in one slice: the retained
// copies of yielded rows inside the evaluator, and the batch and buffer
// form of the mediator's lane (a federated sub-answer travels as RowBufs,
// the bound join and the result cache keep their rows in one).
type RowBuf struct {
	Width, N int
	Terms    []rdf.Term
}

// collect drains in into a buffer of width-wide rows. A remote leaf
// failing below it cuts the rows short; its callers check plan.err.
func collect(in op, width int) RowBuf {
	b := RowBuf{Width: width, Terms: make([]rdf.Term, 0, 16*width)}
	in.run(func(r Row) bool {
		b.Append(r)
		return true
	})
	return b
}

// Row returns the i-th row, a view into the buffer.
func (b *RowBuf) Row(i int) Row { return b.Terms[i*b.Width : (i+1)*b.Width : (i+1)*b.Width] }

// Append copies r (of the buffer's width) to the end of the buffer. The
// terms' strings are shared with r's, which is right for a buffer that
// lives as long as the query does.
func (b *RowBuf) Append(r Row) {
	b.Terms = append(b.Terms, r...)
	b.N++
}

// AppendCompact is Append for a buffer that outlives the query (a cache
// entry, a view build): the values are copied into the arena, so the
// buffer does not keep the decoders' chunks — with every dropped
// duplicate's strings in them — alive.
func (b *RowBuf) AppendCompact(a *rdf.Arena, r Row) {
	for _, t := range r {
		b.Terms = append(b.Terms, a.Term(t))
	}
	b.N++
}

// orderOp sorts; sorting is inherently blocking, so it materialises its
// input and then streams the sorted copies.
type orderOp struct {
	p     *plan
	in    op
	conds []sparql.OrderCondition
}

func (o *orderOp) run(yield func(Row) bool) bool {
	buf := collect(o.in, len(o.p.names))
	if o.p.err != nil {
		return false
	}
	rows := make([]Row, buf.N)
	for i := range rows {
		rows[i] = buf.Row(i)
	}
	fi, fj := &frame{p: o.p}, &frame{p: o.p}
	funcs := o.p.eng.Funcs
	sort.SliceStable(rows, func(i, j int) bool {
		fi.row, fj.row = rows[i], rows[j]
		for _, c := range o.conds {
			vi, ei := evalExpr(c.Expr, fi, funcs)
			vj, ej := evalExpr(c.Expr, fj, funcs)
			cmp := 0
			switch {
			case ei != nil && ej != nil:
			case ei != nil: // SPARQL ordering: unbound/error sorts lowest
				cmp = -1
			case ej != nil:
				cmp = 1
			default:
				cmp = orderCompare(vi, vj)
			}
			if cmp != 0 {
				return (cmp < 0) != c.Desc
			}
		}
		return false
	})
	for _, r := range rows {
		if !yield(r) {
			return false
		}
	}
	return true
}

// orderCompare is the total ORDER BY comparator: blank < IRI < literal by
// kind, then value-aware comparison within kinds.
func orderCompare(a, b rdf.Term) int {
	rank := func(t rdf.Term) int {
		switch t.Kind {
		case rdf.KindBlank:
			return 0
		case rdf.KindIRI:
			return 1
		default:
			return 2
		}
	}
	if ra, rb := rank(a), rank(b); ra != rb {
		return ra - rb
	}
	if a.Kind == rdf.KindLiteral && b.Kind == rdf.KindLiteral {
		if c, err := compareOrdered(a, b); err == nil {
			return c
		}
	}
	return a.Compare(b)
}

// joinRows writes the union of two rows over one slot table to out and
// reports whether they were compatible: agreed on every slot both bind
// (the SPARQL join condition).
func joinRows(out, l, r Row) bool {
	for s, t := range l {
		switch {
		case t.Kind == rdf.KindAny:
			t = r[s]
		case r[s].Kind != rdf.KindAny && r[s] != t:
			return false
		}
		out[s] = t
	}
	return true
}

// leftJoinOp is OPTIONAL. The left side streams; a BGP right side extends
// each left row in place, any other right side is evaluated once, copied,
// and merged with each compatible left row.
type leftJoinOp struct {
	p    *plan
	l    op
	bgp  *bgpOp // the right operand when it is a BGP, else nil and r is set
	r    op
	expr sparql.Expression // may be nil
}

func (o *leftJoinOp) run(yield func(Row) bool) bool {
	fr := &frame{p: o.p}
	matched, more := false, true
	// extended filters and forwards one extension of the current left row.
	extended := func(ext Row) bool {
		if o.expr != nil {
			fr.row = ext
			if ok, err := evalBool(o.expr, fr, o.p.eng.Funcs); err != nil || !ok {
				return true
			}
		}
		matched = true
		more = yield(ext)
		return more
	}
	var right RowBuf
	var out Row
	if o.bgp == nil {
		if right = collect(o.r, len(o.p.names)); o.p.err != nil {
			return false
		}
		out = o.p.newRow()
	}
	return o.l.run(func(l Row) bool {
		matched = false
		if o.bgp != nil {
			o.bgp.seeded(l, extended)
		} else {
			for i := 0; i < right.N && more; i++ {
				if joinRows(out, l, right.Row(i)) {
					extended(out)
				}
			}
		}
		if !more {
			return false
		}
		return matched || yield(l)
	})
}

// hashJoinOp is the generic join: the left operand is evaluated, copied
// and bucketed by the key slots, and the right one streams, each row
// probing its bucket; a remote right operand is handed the left keys
// first (see Seed). Rows of one operand may bind different slots (under
// UNION or OPTIONAL): the key slots are the right side's that some left
// row binds, and a row leaving one unbound is compared with every row.
type hashJoinOp struct {
	p      *plan
	l, r   op
	rslots []int // the slots the right operand's build asked for
}

func (o *hashJoinOp) run(yield func(Row) bool) bool {
	width := len(o.p.names)
	left := collect(o.l, width)
	remote, _ := o.r.(*remoteOp)
	if o.p.err != nil || left.N == 0 && remote == nil {
		return o.p.err == nil
	}
	// The probe's state, one allocation for the usual few key slots.
	st := &struct {
		left  RowBuf
		seed  Seed
		slots [4]int
		vars  [4]string
		buf   []byte
	}{left: left}
	seed := &st.seed
	seed.Left, seed.Vars = left.N, st.vars[:0]
	keySlots := st.slots[:0]
	for _, s := range o.rslots {
		for i := s; i < len(left.Terms); i += width {
			if left.Terms[i].Kind != rdf.KindAny {
				if !slices.Contains(keySlots, s) {
					keySlots = append(keySlots, s)
					seed.Vars = append(seed.Vars, o.p.names[s])
				}
				break
			}
		}
	}
	seed.Keys.Width = len(keySlots)
	// The left rows' keys, end to end in one string, index a map from each
	// key to the first row that has it; next chains the rest in row order.
	// A row that leaves a key slot unbound is unkeyed: every right row is
	// compared with it.
	idx := make([]int32, 2*left.N+1)
	offs, next := idx[:left.N+1], idx[left.N+1:]
	arena := make([]byte, 0, left.N*len(keySlots)*64)
	var unkeyed []int32
	if remote != nil {
		seed.Keys.Terms = make([]rdf.Term, 0, left.N*len(keySlots))
	}
	for i := range left.N {
		l := left.Row(i)
		if k, ok := appendSlotKey(arena, l, keySlots); ok {
			arena = k
			if remote != nil {
				for _, s := range keySlots {
					seed.Keys.Terms = append(seed.Keys.Terms, l[s])
				}
				seed.Keys.N++
			}
		} else {
			unkeyed = append(unkeyed, int32(i))
		}
		offs[i+1] = int32(len(arena))
	}
	if len(unkeyed) > 0 { // keys that leave left rows out cannot restrict the right side
		seed.Vars, seed.Keys = nil, RowBuf{}
	}
	keys, heads := string(arena), make(map[string]int32, left.N)
	for i := left.N - 1; i >= 0; i-- {
		k := keys[offs[i]:offs[i+1]]
		if k == "" && len(keySlots) > 0 {
			continue // unkeyed
		}
		next[i] = -1
		if h, ok := heads[k]; ok {
			next[i] = h
		}
		heads[k] = int32(i)
	}
	st.buf = arena[:0] // copied into keys, free to hold a right row's key
	out := o.p.newRow()
	probe := func(r Row) bool {
		k, ok := appendSlotKey(st.buf[:0], r, keySlots)
		st.buf = k
		emit := func(i int32) bool {
			if !joinRows(out, st.left.Row(int(i)), r) {
				return true
			}
			seed.Joined++
			return yield(out)
		}
		if !ok {
			for i := range int32(st.left.N) {
				if !emit(i) {
					return false
				}
			}
			return true
		}
		if h, found := heads[string(k)]; found {
			for i := h; i >= 0; i = next[i] {
				if !emit(i) {
					return false
				}
			}
		}
		for _, i := range unkeyed {
			if !emit(i) {
				return false
			}
		}
		return true
	}
	if remote != nil {
		return remote.fetch(seed, probe)
	}
	return o.r.run(probe)
}

// appendSlotKey appends r's hash-join key over slots to dst, the cells'
// strings each closed by a 0 byte; ok is false when r leaves a slot
// unbound.
func appendSlotKey(dst []byte, r Row, slots []int) (key []byte, ok bool) {
	for _, s := range slots {
		if r[s].Kind == rdf.KindAny {
			return dst, false
		}
		dst = append(r[s].AppendString(dst), 0)
	}
	return dst, true
}
