package eval

import (
	"context"
	"iter"
	"slices"

	"sparqlrw/internal/algebra"
	"sparqlrw/internal/obs"
)

// Remote is the source of an algebra.Remote leaf: rows another repository
// supplies through the mediator, which implements it.
type Remote interface {
	// Fetch pushes the leaf's rows into yield — row[i] binding the leaf's
	// i-th variable — until they end, yield returns false or ctx is done,
	// and returns the error that cut them short. seed is nil unless the
	// leaf is a join's right operand.
	Fetch(ctx context.Context, seed *Seed, yield func(Row) bool) error
}

// Seed is what a join hands the remote leaf it streams: the left rows'
// bindings of the variables they share (none when they cannot restrict
// it), duplicates included, which the leaf may ship as VALUES (a bound
// join) or ignore (a hash join). Left and Joined profile the join: its
// left rows, and the rows it has emitted so far.
type Seed struct {
	Vars   []string
	Keys   RowBuf // rows over Vars
	Left   int
	Joined int64
}

// remoteOp is a remote leaf: its source's rows laid out over the slots.
type remoteOp struct {
	p     *plan
	src   Remote
	slots []int // the slot of each of the leaf's variables
	few   [4]int
}

func (o *remoteOp) run(yield func(Row) bool) bool { return o.fetch(nil, yield) }

// fetch runs the source under the plan's context. Its failure is the
// plan's, and stops every operator above.
func (o *remoteOp) fetch(seed *Seed, yield func(Row) bool) bool {
	out, more := o.p.newRow(), true
	err := o.src.Fetch(o.p.ctx, seed, func(r Row) bool {
		for i, s := range o.slots {
			out[s] = r[i]
		}
		more = yield(out)
		return more
	})
	if err != nil && o.p.err == nil {
		o.p.err = err
	}
	return more && err == nil
}

// Open compiles a plan over remote leaves — the joins, filters and
// modifiers the mediator runs above its federated sub-requests — and
// returns its rows over vars, a lazy sequence run under ctx that a leaf's
// failure ends with its error. Each FILTER and the final stage (rows into
// the projection, out of the plan) profile into the trace ctx carries. A
// lone remote leaf over exactly vars is no plan: its rows are the leaf's
// Fetch, as the source hands them out.
func (e *Engine) Open(ctx context.Context, a algebra.Op, vars []string) (iter.Seq2[Row, error], error) {
	if r, ok := a.(*algebra.Remote); ok && slices.Equal(r.Vars, vars) {
		return func(yield func(Row, error) bool) {
			more := true
			if err := r.Source.(Remote).Fetch(ctx, nil, func(row Row) bool {
				more = yield(row, nil)
				return more
			}); err != nil && more {
				yield(nil, err)
			}
		}, nil
	}
	p := &plan{eng: *e, slots: map[string]int{}, names: make([]string, 0, 8), ctx: ctx}
	if p.root = p.build(a); p.err != nil {
		return nil, p.err
	}
	rows := p.rows(vars)
	return func(yield func(Row, error) bool) {
		var out int64
		defer p.profile("final", "distinct-limit", int64(p.leaves), &p.projected, &out)()
		for row := range rows {
			if out++; !yield(row, nil) {
				return
			}
		}
		if p.err != nil {
			yield(nil, p.err)
		}
	}, nil
}

// profile opens an operator span for a plan over remote leaves (none for
// any other) and returns the function that records the rows in and out
// on it and ends it.
func (p *plan) profile(span, op string, stage int64, in, out *int64) func() {
	if p.ctx == nil {
		return func() {}
	}
	_, s := obs.StartSpan(p.ctx, span)
	return func() {
		st := obs.Operator(op)
		st.Stage, st.RowsIn, st.RowsOut = stage, *in, *out
		s.SetOperator(st)
		s.End()
	}
}
