package core

import (
	"fmt"

	"sparqlrw/internal/algebra"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
)

// RewriteAlgebra carries out the paper's §4 proposal in full: rewriting
// over the SPARQL algebra, "that offers the advantage of an homogeneous
// representation of the whole query (LISP like structures)". Basic graph
// patterns are rewritten exactly as in Algorithm 1; FILTER expressions —
// the Figure 6 problem — are ordinary tree nodes here and are translated
// uniformly when Options.RewriteFilters is set. The input tree is not
// modified.
func (rw *Rewriter) RewriteAlgebra(op algebra.Op) (algebra.Op, *Report, error) {
	report := &Report{}
	st := &rewriteState{used: map[string]bool{}, prefix: rw.Opts.FreshPrefix, report: report}
	if st.prefix == "" {
		st.prefix = "new"
	}
	// Seed the fresh-variable generator with names used anywhere in the
	// tree.
	algebra.Walk(op, func(o algebra.Op) {
		switch n := o.(type) {
		case *algebra.BGP:
			for _, t := range n.Patterns {
				for _, v := range t.Vars() {
					st.used[v] = true
				}
			}
		case *algebra.Filter:
			for _, t := range sparql.ExprTerms(n.Expr) {
				if t.IsVar() {
					st.used[t.Value] = true
				}
			}
		}
	})
	out, err := rw.rewriteOp(op, st)
	return out, report, err
}

func (rw *Rewriter) rewriteOp(op algebra.Op, st *rewriteState) (algebra.Op, error) {
	switch o := op.(type) {
	case nil:
		return nil, nil
	case *algebra.Unit:
		return &algebra.Unit{}, nil
	case *algebra.BGP:
		if rw.Opts.MatchMode == UnionMatches {
			return rw.rewriteBGPAlgebraUnion(o.Patterns, st)
		}
		pats, err := rw.rewriteBGP(o.Patterns, st)
		if err != nil {
			return nil, err
		}
		return &algebra.BGP{Patterns: pats}, nil
	case *algebra.Join:
		l, err := rw.rewriteOp(o.L, st)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewriteOp(o.R, st)
		if err != nil {
			return nil, err
		}
		return &algebra.Join{L: l, R: r}, nil
	case *algebra.LeftJoin:
		l, err := rw.rewriteOp(o.L, st)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewriteOp(o.R, st)
		if err != nil {
			return nil, err
		}
		expr, err := rw.rewriteExprMaybe(o.Expr, st)
		if err != nil {
			return nil, err
		}
		return &algebra.LeftJoin{L: l, R: r, Expr: expr}, nil
	case *algebra.Union:
		l, err := rw.rewriteOp(o.L, st)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewriteOp(o.R, st)
		if err != nil {
			return nil, err
		}
		return &algebra.Union{L: l, R: r}, nil
	case *algebra.Filter:
		in, err := rw.rewriteOp(o.Input, st)
		if err != nil {
			return nil, err
		}
		expr, err := rw.rewriteExprMaybe(o.Expr, st)
		if err != nil {
			return nil, err
		}
		return &algebra.Filter{Expr: expr, Input: in}, nil
	case *algebra.Project:
		in, err := rw.rewriteOp(o.Input, st)
		if err != nil {
			return nil, err
		}
		return &algebra.Project{Vars: append([]string(nil), o.Vars...), Star: o.Star, Input: in}, nil
	case *algebra.Distinct:
		in, err := rw.rewriteOp(o.Input, st)
		if err != nil {
			return nil, err
		}
		return &algebra.Distinct{Input: in}, nil
	case *algebra.Reduced:
		in, err := rw.rewriteOp(o.Input, st)
		if err != nil {
			return nil, err
		}
		return &algebra.Reduced{Input: in}, nil
	case *algebra.OrderBy:
		in, err := rw.rewriteOp(o.Input, st)
		if err != nil {
			return nil, err
		}
		conds := make([]sparql.OrderCondition, len(o.Conds))
		for i, c := range o.Conds {
			expr, err := rw.rewriteExprMaybe(c.Expr, st)
			if err != nil {
				return nil, err
			}
			conds[i] = sparql.OrderCondition{Expr: expr, Desc: c.Desc}
		}
		return &algebra.OrderBy{Conds: conds, Input: in}, nil
	case *algebra.Slice:
		in, err := rw.rewriteOp(o.Input, st)
		if err != nil {
			return nil, err
		}
		return &algebra.Slice{Limit: o.Limit, Offset: o.Offset, Input: in}, nil
	default:
		return nil, fmt.Errorf("core: unsupported algebra node %T", op)
	}
}

// rewriteExprMaybe translates expression constants when the FILTER
// extension is on, or records Figure-6 warnings when it is off.
func (rw *Rewriter) rewriteExprMaybe(expr sparql.Expression, st *rewriteState) (sparql.Expression, error) {
	if expr == nil {
		return nil, nil
	}
	if !rw.Opts.RewriteFilters {
		rw.detectFilterConflict(expr, st.report)
		return expr, nil
	}
	out, n, err := rw.rewriteFilterExpr(expr, st)
	if err != nil {
		return nil, err
	}
	st.report.FilterRewrites += n
	return out, nil
}

// rewriteBGPAlgebraUnion is the algebra counterpart of rewriteBGPUnion:
// alternatives become algebra.Union joins.
func (rw *Rewriter) rewriteBGPAlgebraUnion(patterns []rdf.Triple, st *rewriteState) (algebra.Op, error) {
	q := &sparql.GroupGraphPattern{Elements: []sparql.GroupElement{
		&sparql.BGP{Patterns: append([]rdf.Triple(nil), patterns...)},
	}}
	if err := rw.rewriteGroup(q, st); err != nil {
		return nil, err
	}
	return algebra.TranslateGroup(q), nil
}
