package eval

import (
	"fmt"
	"iter"

	"sparqlrw/internal/algebra"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
)

// SolutionSeq is a lazy solution sequence: a single-use iterator yielding
// solutions as the evaluator (or a decoder, or a federated merge) produces
// them. A non-nil error terminates the sequence; no solutions follow it.
// Consumers may stop early by breaking out of the range loop, which
// releases the producer without draining it.
type SolutionSeq = iter.Seq2[Solution, error]

// StreamResult is the streaming counterpart of Result: the projected
// variable names plus a lazy solution sequence. Seq is single-use.
type StreamResult struct {
	Vars []string
	Seq  SolutionSeq
}

// SolutionStream is a pull-based stream of solutions, the handle shape
// shared by the endpoint client (decoding a response body incrementally)
// and the federation executor (merging many such bodies). Next returns
// io.EOF at the clean end of the stream; Close releases the underlying
// resources and must always be called. Next hands the caller ownership
// of the returned map: the stream never touches it again, so a consumer
// (the owl:sameAs merge) may rewrite it in place.
type SolutionStream interface {
	Vars() []string
	Next() (Solution, error)
	Close() error
}

// SelectSeq evaluates a SELECT query lazily: solutions are produced on
// demand as the returned sequence is consumed. Operators stream where the
// algebra allows (BGP matching, joins with BGP operands, FILTER, UNION,
// DISTINCT, projection, LIMIT/OFFSET); ORDER BY and generic hash joins
// materialise their inputs. LIMIT stops upstream work as soon as it is
// satisfied.
func (e *Engine) SelectSeq(q *sparql.Query) (*StreamResult, error) {
	if q.Form != sparql.Select {
		return nil, fmt.Errorf("eval: SelectSeq called on %s query", q.Form)
	}
	vars := q.SelectVars
	if q.SelectStar {
		vars = q.Vars()
	}
	return &StreamResult{Vars: vars, Seq: e.evalSeq(algebra.Translate(q))}, nil
}

// EvalAlgebraSeq lazily evaluates an arbitrary algebra tree, for callers
// operating below the Query layer.
func (e *Engine) EvalAlgebraSeq(op algebra.Op) SolutionSeq {
	return e.evalSeq(op)
}

// Collect drains a solution sequence into a slice, returning the first
// error the sequence yielded.
func Collect(seq SolutionSeq) ([]Solution, error) {
	var out []Solution
	for sol, err := range seq {
		if err != nil {
			return nil, err
		}
		out = append(out, sol)
	}
	return out, nil
}

// errSeq yields a single terminal error.
func errSeq(err error) SolutionSeq {
	return func(yield func(Solution, error) bool) {
		yield(nil, err)
	}
}

// oneSeq yields a single solution.
func oneSeq(sol Solution) SolutionSeq {
	return func(yield func(Solution, error) bool) {
		yield(sol, nil)
	}
}

// evalSeq lazily interprets an algebra tree. It is the engine's core
// evaluation path; the buffered eval() drains it.
func (e *Engine) evalSeq(op algebra.Op) SolutionSeq {
	switch o := op.(type) {
	case *algebra.Unit:
		return oneSeq(Solution{})
	case *algebra.BGP:
		return e.evalBGPSeq(o.Patterns, Solution{})
	case *algebra.Table:
		return func(yield func(Solution, error) bool) {
			for _, sol := range tableSolutions(o) {
				if !yield(sol, nil) {
					return
				}
			}
		}
	case *algebra.Join:
		return e.evalJoinSeq(o)
	case *algebra.LeftJoin:
		return e.evalLeftJoinSeq(o)
	case *algebra.Union:
		return func(yield func(Solution, error) bool) {
			for sol, err := range e.evalSeq(o.L) {
				if !yield(sol, err) || err != nil {
					return
				}
			}
			for sol, err := range e.evalSeq(o.R) {
				if !yield(sol, err) || err != nil {
					return
				}
			}
		}
	case *algebra.Filter:
		return func(yield func(Solution, error) bool) {
			for sol, err := range e.evalSeq(o.Input) {
				if err != nil {
					yield(nil, err)
					return
				}
				// SPARQL FILTER error semantics: an erroring expression
				// excludes the row rather than failing the query.
				if ok, err := evalBool(o.Expr, sol, e.Funcs); err == nil && ok {
					if !yield(sol, nil) {
						return
					}
				}
			}
		}
	case *algebra.Project:
		return func(yield func(Solution, error) bool) {
			for sol, err := range e.evalSeq(o.Input) {
				if err != nil {
					yield(nil, err)
					return
				}
				if o.Star {
					sol = sol.ProjectAll()
				} else {
					sol = sol.Project(o.Vars)
				}
				if !yield(sol, nil) {
					return
				}
			}
		}
	case *algebra.Distinct:
		return e.distinctSeq(o.Input)
	case *algebra.Reduced:
		return e.distinctSeq(o.Input)
	case *algebra.OrderBy:
		// Sorting is inherently blocking: materialise, sort, then stream.
		return func(yield func(Solution, error) bool) {
			in, err := Collect(e.evalSeq(o.Input))
			if err != nil {
				yield(nil, err)
				return
			}
			e.sortSolutions(in, o.Conds)
			for _, sol := range in {
				if !yield(sol, nil) {
					return
				}
			}
		}
	case *algebra.Slice:
		return func(yield func(Solution, error) bool) {
			off := o.Offset
			if off < 0 {
				off = 0
			}
			skipped, emitted := 0, 0
			for sol, err := range e.evalSeq(o.Input) {
				if err != nil {
					yield(nil, err)
					return
				}
				if skipped < off {
					skipped++
					continue
				}
				if o.Limit >= 0 && emitted >= o.Limit {
					return // LIMIT satisfied: stop upstream work
				}
				if !yield(sol, nil) {
					return
				}
				emitted++
				if o.Limit >= 0 && emitted >= o.Limit {
					return
				}
			}
		}
	default:
		return errSeq(fmt.Errorf("eval: unsupported algebra node %T", op))
	}
}

// evalJoinSeq streams joins where one operand is a BGP (index nested loops
// seeded by each solution of the other side, produced lazily); the generic
// case materialises both sides for a hash join.
func (e *Engine) evalJoinSeq(o *algebra.Join) SolutionSeq {
	// A Table operand joined with a BGP seeds the BGP's index lookups row
	// by row — the VALUES-driven evaluation sharded federation sub-queries
	// rely on — instead of scanning the BGP unseeded.
	if t, bgp, ok := tableBGPJoin(o); ok {
		return func(yield func(Solution, error) bool) {
			for _, sol := range tableSolutions(t) {
				for ext, err := range e.evalBGPSeq(bgp.Patterns, sol) {
					if !yield(ext, err) || err != nil {
						return
					}
				}
			}
		}
	}
	// BGP right operands evaluate as index nested loops seeded by each
	// left solution, both sides streaming.
	if rb, ok := o.R.(*algebra.BGP); ok {
		return func(yield func(Solution, error) bool) {
			for sol, err := range e.evalSeq(o.L) {
				if err != nil {
					yield(nil, err)
					return
				}
				for ext, err := range e.evalBGPSeq(rb.Patterns, sol) {
					if !yield(ext, err) || err != nil {
						return
					}
				}
			}
		}
	}
	// Generic case: hash join over materialised operands, streamed out.
	return func(yield func(Solution, error) bool) {
		l, err := Collect(e.evalSeq(o.L))
		if err != nil {
			yield(nil, err)
			return
		}
		r, err := Collect(e.evalSeq(o.R))
		if err != nil {
			yield(nil, err)
			return
		}
		for _, sol := range hashJoin(l, r) {
			if !yield(sol, nil) {
				return
			}
		}
	}
}

// evalLeftJoinSeq streams OPTIONAL: the left side is consumed lazily; each
// left solution's extensions come from seeded BGP matching (streaming) or
// a materialised right operand.
func (e *Engine) evalLeftJoinSeq(o *algebra.LeftJoin) SolutionSeq {
	return func(yield func(Solution, error) bool) {
		var rMat []Solution // materialised non-BGP right operand, built once
		rb, rIsBGP := o.R.(*algebra.BGP)
		for sol, err := range e.evalSeq(o.L) {
			if err != nil {
				yield(nil, err)
				return
			}
			var exts []Solution
			if rIsBGP {
				exts, err = e.evalBGP(rb.Patterns, sol)
				if err != nil {
					yield(nil, err)
					return
				}
			} else {
				if rMat == nil {
					rMat, err = Collect(e.evalSeq(o.R))
					if err != nil {
						yield(nil, err)
						return
					}
					if rMat == nil {
						rMat = []Solution{} // distinguish "built, empty" from "not built"
					}
				}
				for _, rs := range rMat {
					if sol.Compatible(rs) {
						exts = append(exts, sol.Merge(rs))
					}
				}
			}
			matched := false
			for _, ext := range exts {
				if o.Expr != nil {
					if ok, err := evalBool(o.Expr, ext, e.Funcs); err != nil || !ok {
						continue
					}
				}
				matched = true
				if !yield(ext, nil) {
					return
				}
			}
			if !matched {
				if !yield(sol, nil) {
					return
				}
			}
		}
	}
}

// distinctSeq streams DISTINCT: each solution is emitted the first time
// its canonical key appears. Only the keys are retained, not the
// solutions, so memory grows with the number of distinct rows' keys while
// results still flow incrementally.
func (e *Engine) distinctSeq(input algebra.Op) SolutionSeq {
	return func(yield func(Solution, error) bool) {
		var seen KeySet
		for sol, err := range e.evalSeq(input) {
			if err != nil {
				yield(nil, err)
				return
			}
			if !seen.Add(sol) {
				continue
			}
			if !yield(sol, nil) {
				return
			}
		}
	}
}

// evalBGPSeq matches all patterns by backtracking over index lookups,
// seeded with an initial partial solution, yielding each complete match as
// it is found. Pattern order is chosen greedily by estimated selectivity
// unless reordering is disabled. The consumer stopping early aborts the
// backtracking search immediately.
func (e *Engine) evalBGPSeq(patterns []rdf.Triple, seed Solution) SolutionSeq {
	return func(yield func(Solution, error) bool) {
		if len(patterns) == 0 {
			yield(seed, nil)
			return
		}
		order := patterns
		if !e.DisableJoinReorder {
			order = e.reorder(patterns, seed)
		}
		// rec returns false when the consumer stopped the iteration.
		var rec func(i int, sol Solution) bool
		rec = func(i int, sol Solution) bool {
			if i == len(order) {
				return yield(sol, nil)
			}
			pat := substitute(order[i], sol)
			cont := true
			e.Store.Match(pat, func(t rdf.Triple) bool {
				ext, ok := extend(sol, order[i], t)
				if ok && !rec(i+1, ext) {
					cont = false
					return false
				}
				return true
			})
			return cont
		}
		rec(0, seed)
	}
}
