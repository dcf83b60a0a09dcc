// Package core implements the paper's primary contribution: the SPARQL
// query rewriting algorithm of §3.3 (Algorithm 1, `rewrite`, and
// Algorithm 2, `instFunction`), lifted from single basic graph patterns to
// whole queries (OPTIONAL/UNION/nested groups), with the fresh-variable
// discipline of §3.3 step 4, configurable behaviour when a functional
// dependency cannot be instantiated, and — as the §4 extension the paper
// leaves to future work — FILTER-aware rewriting that translates
// constraint constants through the same co-reference machinery.
package core

import (
	"fmt"
	"strconv"

	"sparqlrw/internal/align"
	"sparqlrw/internal/funcs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
)

// FDPolicy selects what happens when a functional dependency fails to
// produce a value (typically: sameas finds no equivalent URI in the target
// URI space).
type FDPolicy uint8

const (
	// KeepOriginal binds the dependent variable to the untranslated source
	// term. The rewritten query is still well-formed; it simply returns no
	// results for that URI on the target — the observable behaviour of the
	// paper's deployed system when sameas.org knows no equivalent.
	KeepOriginal FDPolicy = iota
	// SkipAlignment abandons the matched alignment for that triple and
	// copies the source triple verbatim (leaving a source-vocabulary
	// pattern in the output).
	SkipAlignment
	// Fail aborts the whole rewrite with an error.
	Fail
)

// MatchMode selects how many alignments may fire per triple.
type MatchMode uint8

const (
	// FirstMatch applies the first matching alignment only — the paper's
	// Algorithm 1 semantics (align.match returns one match).
	FirstMatch MatchMode = iota
	// AllMatches applies every matching alignment, conjoining their RHS
	// instantiations into the output BGP; an ablation of Algorithm 1
	// (README.md describes the rewriter).
	AllMatches
	// UnionMatches applies every matching alignment as an *alternative*:
	// a triple matched by k alignments becomes a k-branch UNION. This
	// closes the level-1 gap the paper notes in §3.2.2 — alignments onto
	// owl:unionOf targets "requir[e] surrogates from SPARQL language
	// (i.e. UNION)" that single-BGP rewriting cannot express.
	UnionMatches
)

// Options configure a Rewriter.
type Options struct {
	Policy    FDPolicy
	MatchMode MatchMode
	// RewriteFilters enables the §4 extension: FILTER constants are
	// translated into the target URI space via sameas.
	RewriteFilters bool
	// RewriteTemplate applies Algorithm 1 to a CONSTRUCT query's template
	// as well, so the constructed triples come out in the target
	// vocabulary. Off by default: the mediator's integration story keeps
	// the template in the source vocabulary (the user's requested output
	// shape) while only the WHERE clause is translated for each endpoint.
	RewriteTemplate bool
	// TargetURISpace is the regex of the target data set's URI space
	// (voiD uriSpace); required by RewriteFilters, used by the Figure-6
	// warning detector, and where a copied triple's instances go.
	TargetURISpace string
	// FreshPrefix names generated variables (default "new", yielding
	// ?new1, ?new2, ... like the paper's ?_33/?_38 fresh variables).
	FreshPrefix string
}

// Rewriter rewrites queries using a fixed set of entity alignments.
type Rewriter struct {
	Alignments []*align.EntityAlignment
	Funcs      *funcs.Registry
	Opts       Options
}

// New returns a rewriter with default options (first-match, keep-original,
// paper-mode FILTER handling).
func New(alignments []*align.EntityAlignment, registry *funcs.Registry) *Rewriter {
	return &Rewriter{Alignments: alignments, Funcs: registry}
}

// TripleTrace records how one input triple pattern was rewritten; the
// concatenated traces reproduce the paper's §3.3.2 worked-example
// narration.
type TripleTrace struct {
	Input     rdf.Triple
	Alignment string // matched EA ID; empty when the triple was copied
	Binding   align.Binding
	Output    []rdf.Triple
	FDNotes   []string
}

// Report accumulates diagnostics across one rewrite.
type Report struct {
	Traces         []TripleTrace
	FreshVars      []string
	Warnings       []string
	MatchedTriples int
	CopiedTriples  int
	FilterRewrites int
	ValuesRewrites int
}

// warnf appends a formatted warning.
func (r *Report) warnf(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// rewriteState carries per-call mutable state (fresh variable generation,
// and the template a shape's rewrite records its deferred operations in).
type rewriteState struct {
	used    map[string]bool
	counter int
	prefix  string
	report  *Report
	tmpl    *Template
}

func (s *rewriteState) fresh() rdf.Term {
	for {
		s.counter++
		name := s.prefix + strconv.Itoa(s.counter)
		if !s.used[name] {
			s.used[name] = true
			s.report.FreshVars = append(s.report.FreshVars, name)
			return rdf.NewVar(name)
		}
	}
}

// RewriteQuery rewrites a whole query: every basic graph pattern in the
// WHERE clause is rewritten per Algorithm 1; FILTER sections are left
// untouched in paper mode (with a Figure-6 warning when they constrain
// source-URI-space constants) or translated in extended mode. CONSTRUCT
// templates are preserved by default (see Options.RewriteTemplate) and
// DESCRIBE resource IRIs are translated through sameas when a target URI
// space is configured. The input query is not modified.
func (rw *Rewriter) RewriteQuery(q *sparql.Query) (*sparql.Query, *Report, error) {
	return rw.rewriteQuery(q, nil)
}

// rewriteQuery is RewriteQuery; with a template, an operation on a slot is
// recorded in it instead of executed (see RewriteShape).
func (rw *Rewriter) rewriteQuery(q *sparql.Query, tmpl *Template) (*sparql.Query, *Report, error) {
	report := &Report{}
	out := q.Clone()
	st := &rewriteState{used: map[string]bool{}, prefix: rw.Opts.FreshPrefix, report: report, tmpl: tmpl}
	if st.prefix == "" {
		st.prefix = "new"
	}
	// Seed the fresh-variable generator with every name in use — including
	// template variables, which the WHERE rewriting must never capture.
	for _, b := range out.BGPs() {
		for _, t := range b.Patterns {
			for _, v := range t.Vars() {
				st.used[v] = true
			}
		}
	}
	for _, t := range out.Template {
		for _, v := range t.Vars() {
			st.used[v] = true
		}
	}
	for _, t := range out.DescribeTerms {
		if t.IsVar() {
			st.used[t.Value] = true
		}
	}
	for _, f := range out.Filters() {
		for _, t := range sparql.ExprTerms(f.Expr) {
			if t.IsVar() {
				st.used[t.Value] = true
			}
		}
	}
	if err := rw.rewriteGroup(out.Where, st); err != nil {
		return nil, report, err
	}
	if rw.Opts.RewriteTemplate && len(out.Template) > 0 {
		tmpl, err := rw.rewriteBGP(out.Template, st)
		if err != nil {
			return nil, report, err
		}
		out.Template = tmpl
	}
	// DESCRIBE resources are instance URIs: translate them into the target
	// URI space like FILTER constants, so a description request formulated
	// with source URIs reaches the target's equivalents.
	if len(out.DescribeTerms) > 0 && rw.Opts.TargetURISpace != "" {
		pattern := rdf.NewLiteral(rw.Opts.TargetURISpace)
		for i, t := range out.DescribeTerms {
			if v, translated := rw.translate(t, pattern, st); translated {
				out.DescribeTerms[i] = v
			}
		}
	}
	// Extend the prefix map (without clobbering user bindings) so the
	// rewritten query formats compactly, like the paper's Figure 3 which
	// introduces kid:/kisti: prefixes during rewriting.
	for p, ns := range map[string]string{
		"kid": "http://kisti.rkbexplorer.com/id/", "kisti": rdf.KISTINS,
		"akt": rdf.AKTNS, "dbo": rdf.DBONS, "foaf": rdf.FOAFNS,
	} {
		if _, ok := out.Prefixes.Namespace(p); !ok {
			out.Prefixes.Bind(p, ns)
		}
	}
	return out, report, nil
}

// rewriteGroup rewrites a group graph pattern tree in place (the tree is
// already a private clone). Under UnionMatches a BGP element may expand
// into a sequence of BGP and UNION elements, so the element list is
// rebuilt.
func (rw *Rewriter) rewriteGroup(g *sparql.GroupGraphPattern, st *rewriteState) error {
	if g == nil {
		return nil
	}
	var rebuilt []sparql.GroupElement
	for _, el := range g.Elements {
		switch e := el.(type) {
		case *sparql.BGP:
			if rw.Opts.MatchMode == UnionMatches {
				els, err := rw.rewriteBGPUnion(e.Patterns, st)
				if err != nil {
					return err
				}
				rebuilt = append(rebuilt, els...)
				continue
			}
			pats, err := rw.rewriteBGP(e.Patterns, st)
			if err != nil {
				return err
			}
			e.Patterns = pats
		case *sparql.SubGroup:
			if err := rw.rewriteGroup(e.Group, st); err != nil {
				return err
			}
		case *sparql.Optional:
			if err := rw.rewriteGroup(e.Group, st); err != nil {
				return err
			}
		case *sparql.Union:
			for _, alt := range e.Alternatives {
				if err := rw.rewriteGroup(alt, st); err != nil {
					return err
				}
			}
		case *sparql.Filter:
			if rw.Opts.RewriteFilters {
				expr, n, err := rw.rewriteFilterExpr(e.Expr, st)
				if err != nil {
					return err
				}
				e.Expr = expr
				st.report.FilterRewrites += n
			} else {
				rw.detectFilterConflict(e.Expr, st.report)
			}
		case *sparql.InlineData:
			if rw.Opts.RewriteFilters {
				n, err := rw.rewriteInlineData(e, st)
				if err != nil {
					return err
				}
				st.report.ValuesRewrites += n
			} else {
				rw.detectInlineDataConflict(e, st.report)
			}
		}
		rebuilt = append(rebuilt, el)
	}
	g.Elements = rebuilt
	return nil
}

// rewriteBGPUnion is the UnionMatches variant of Algorithm 1: triples
// matched by several alignments become UNION elements whose branches are
// the alternative RHS instantiations; single-match and unmatched triples
// accumulate into ordinary BGP elements as usual.
func (rw *Rewriter) rewriteBGPUnion(patterns []rdf.Triple, st *rewriteState) ([]sparql.GroupElement, error) {
	var elements []sparql.GroupElement
	var cur []rdf.Triple
	flush := func() {
		if len(cur) > 0 {
			elements = append(elements, &sparql.BGP{Patterns: cur})
			cur = nil
		}
	}
	for _, t := range patterns {
		matches := align.AllMatches(rw.Alignments, t)
		switch len(matches) {
		case 0:
			cur = append(cur, rw.copyTriple(t, st))
		case 1:
			out, trace, err := rw.applyAlignment(t, matches[0], st)
			if err != nil {
				return nil, err
			}
			st.report.MatchedTriples++
			st.report.Traces = append(st.report.Traces, trace)
			cur = append(cur, out...)
		default:
			flush()
			st.report.MatchedTriples++
			union := &sparql.Union{}
			for _, m := range matches {
				out, trace, err := rw.applyAlignment(t, m, st)
				if err != nil {
					return nil, err
				}
				st.report.Traces = append(st.report.Traces, trace)
				union.Alternatives = append(union.Alternatives, &sparql.GroupGraphPattern{
					Elements: []sparql.GroupElement{&sparql.BGP{Patterns: out}},
				})
			}
			elements = append(elements, union)
		}
	}
	flush()
	return elements, nil
}

// RewriteBGP applies Algorithm 1 to one basic graph pattern and returns
// the rewritten patterns with a report (conveniently wrapping the
// query-level machinery for callers that hold bare pattern lists).
// UnionMatches cannot be expressed as a flat pattern list; use
// RewriteQuery for that mode.
func (rw *Rewriter) RewriteBGP(patterns []rdf.Triple) ([]rdf.Triple, *Report, error) {
	if rw.Opts.MatchMode == UnionMatches {
		return nil, nil, fmt.Errorf("core: UnionMatches produces UNION elements; use RewriteQuery")
	}
	report := &Report{}
	st := &rewriteState{used: map[string]bool{}, prefix: rw.Opts.FreshPrefix, report: report}
	if st.prefix == "" {
		st.prefix = "new"
	}
	for _, t := range patterns {
		for _, v := range t.Vars() {
			st.used[v] = true
		}
	}
	out, err := rw.rewriteBGP(patterns, st)
	return out, report, err
}

// rewriteBGP is Algorithm 1 (`rewrite(align, bgp)`): each triple is
// matched against the alignment set; matched triples are replaced by their
// instantiated RHS (after FD execution), unmatched triples are copied.
func (rw *Rewriter) rewriteBGP(patterns []rdf.Triple, st *rewriteState) ([]rdf.Triple, error) {
	var result []rdf.Triple
	for _, t := range patterns {
		var matches []align.MatchResult
		if rw.Opts.MatchMode == AllMatches {
			matches = align.AllMatches(rw.Alignments, t)
		} else if ea, b, ok := align.FirstMatch(rw.Alignments, t); ok {
			matches = []align.MatchResult{{Alignment: ea, Binding: b}}
		}
		if len(matches) == 0 {
			result = append(result, rw.copyTriple(t, st))
			continue
		}
		st.report.MatchedTriples++
		for _, m := range matches {
			out, trace, err := rw.applyAlignment(t, m, st)
			if err != nil {
				return nil, err
			}
			result = append(result, out...)
			st.report.Traces = append(st.report.Traces, trace)
		}
	}
	return result, nil
}

// copyTriple is Algorithm 1 line 12 (result := result ∪ t) for a triple
// no alignment matches, one of the target's own vocabulary: it is copied
// with its instances, its subject and its object under a predicate other
// than rdf:type, translated into TargetURISpace when that is set, so a
// query naming a resource by another data set's URI still reaches it.
func (rw *Rewriter) copyTriple(t rdf.Triple, st *rewriteState) rdf.Triple {
	in := t
	if rw.Opts.TargetURISpace != "" {
		pattern := rdf.NewLiteral(rw.Opts.TargetURISpace)
		t.S, _ = rw.translate(t.S, pattern, st)
		if !(t.P.IsIRI() && t.P.Value == rdf.RDFType) {
			t.O, _ = rw.translate(t.O, pattern, st)
		}
	}
	st.report.CopiedTriples++
	st.report.Traces = append(st.report.Traces, TripleTrace{Input: in, Output: []rdf.Triple{t}})
	return t
}

// applyAlignment instantiates one matched alignment: Algorithm 2 over the
// functional dependencies, then RHS instantiation with fresh variables for
// the remaining free variables (§3.3 step 4).
func (rw *Rewriter) applyAlignment(t rdf.Triple, m align.MatchResult, st *rewriteState) ([]rdf.Triple, TripleTrace, error) {
	ea := m.Alignment
	binding := m.Binding.Clone()
	trace := TripleTrace{Input: t, Alignment: ea.ID}

	// Algorithm 2 (instFunction): instantiate every functional dependency
	// whose parameters are resolvable, extending the binding.
	for _, fd := range ea.FDs {
		params := make([]rdf.Term, len(fd.Args))
		for i, arg := range fd.Args {
			if arg.IsVar() || arg.IsBlank() {
				if v, ok := binding[arg.Value]; ok {
					params[i] = v // bound: use the binding (line 10)
				} else {
					params[i] = arg // unbound: pass the variable (line 12)
				}
			} else {
				params[i] = arg // ground parameter (line 12)
			}
		}
		if rw.Funcs == nil {
			return nil, trace, fmt.Errorf("core: alignment %s requires function <%s> but no registry is configured", ea.ID, fd.Func)
		}
		if st.tmpl != nil && hasSlot(params) {
			orig, _ := firstVarParam(fd, binding)
			binding[fd.Var] = st.tmpl.deferOp(deferredOp{fn: fd.Func, args: params, orig: orig})
			continue
		}
		value, err := rw.Funcs.Call(fd.Func, params)
		if err != nil {
			switch rw.Opts.Policy {
			case Fail:
				return nil, trace, fmt.Errorf("core: rewriting %s with %s: %w", t, ea.ID, err)
			case SkipAlignment:
				trace.FDNotes = append(trace.FDNotes, err.Error()+" (alignment skipped)")
				trace.Alignment = ""
				trace.Output = []rdf.Triple{t}
				st.report.warnf("alignment %s skipped for %s: %v", ea.ID, t, err)
				return []rdf.Triple{t}, trace, nil
			default: // KeepOriginal
				if orig, ok := firstVarParam(fd, binding); ok {
					binding[fd.Var] = orig
					trace.FDNotes = append(trace.FDNotes, fmt.Sprintf("%v (kept original term %s)", err, orig))
					st.report.warnf("FD %s on %s kept original term: %v", fd, t, err)
					continue
				}
				trace.FDNotes = append(trace.FDNotes, err.Error()+" (left unbound)")
				st.report.warnf("FD %s on %s left unbound: %v", fd, t, err)
				continue
			}
		}
		// Line 16: binding[var] := result. When the function returned an
		// unbound variable (the sameas default mechanism), the dependent
		// variable aliases it, exactly as in the paper's worked example
		// ([?p2/?paper]).
		binding[fd.Var] = value
		trace.FDNotes = append(trace.FDNotes, fd.String()+" -> "+value.String())
	}

	// Instantiate the RHS under the final binding, binding all remaining
	// free variables to fresh ones so the same alignment can fire again in
	// this rewrite "without introducing unneeded constraints" (§3.3).
	freshLocal := map[string]rdf.Term{}
	instantiate := func(x rdf.Term) rdf.Term {
		if !x.IsVar() && !x.IsBlank() {
			return x
		}
		if v, ok := binding[x.Value]; ok {
			return v
		}
		if v, ok := freshLocal[x.Value]; ok {
			return v
		}
		f := st.fresh()
		freshLocal[x.Value] = f
		return f
	}
	var out []rdf.Triple
	for _, r := range ea.RHS {
		out = append(out, rdf.Triple{S: instantiate(r.S), P: instantiate(r.P), O: instantiate(r.O)})
	}
	trace.Binding = binding
	trace.Output = out
	return out, trace, nil
}

// firstVarParam returns the bound value of the first variable argument of
// fd, the "original term" the KeepOriginal policy falls back to.
func firstVarParam(fd align.FD, binding align.Binding) (rdf.Term, bool) {
	for _, arg := range fd.Args {
		if arg.IsVar() || arg.IsBlank() {
			if v, ok := binding[arg.Value]; ok {
				return v, true
			}
		}
	}
	return rdf.Term{}, false
}

// detectFilterConflict implements the paper-mode Figure 6 diagnostic: the
// BGP rewriting cannot see constraints hidden in FILTER expressions, so
// any ground IRI mentioned there — and, when a target URI space is known,
// specifically any IRI outside it — is flagged.
func (rw *Rewriter) detectFilterConflict(expr sparql.Expression, report *Report) {
	for _, t := range sparql.ExprTerms(expr) {
		if !t.IsIRI() {
			continue
		}
		report.warnf("FILTER constrains IRI <%s>; graph-pattern rewriting does not reach FILTER constants (paper §4, Figure 6) — enable RewriteFilters to translate them", t.Value)
	}
}

// rewriteFilterExpr is the §4 extension: IRI constants inside FILTER
// expressions are translated into the target URI space with the same
// sameas machinery the BGP rewriting uses. Vocabulary IRIs matched by a
// level-0 property/class alignment are substituted directly.
func (rw *Rewriter) rewriteFilterExpr(expr sparql.Expression, st *rewriteState) (sparql.Expression, int, error) {
	if rw.Opts.TargetURISpace == "" {
		return expr, 0, fmt.Errorf("core: RewriteFilters requires Options.TargetURISpace")
	}
	n := 0
	pattern := rdf.NewLiteral(rw.Opts.TargetURISpace)
	out := sparql.MapExprTerms(expr, func(t rdf.Term) rdf.Term {
		v, translated := rw.translate(t, pattern, st)
		if translated {
			n++
		}
		return v
	})
	return out, n, nil
}

// translate is translateIRITerm for one constant of a FILTER, a VALUES
// block or a DESCRIBE: an IRI translates now, a slot's translation is
// deferred to the template's Bind, and anything else stays as it is.
func (rw *Rewriter) translate(t, pattern rdf.Term, st *rewriteState) (rdf.Term, bool) {
	if _, ok := sparql.SlotIndex(t); ok && st.tmpl != nil {
		return st.tmpl.deferOp(deferredOp{args: []rdf.Term{t, pattern}}), true
	}
	if !t.IsIRI() {
		return t, false
	}
	return rw.translateIRITerm(t, pattern)
}

// translateIRITerm maps one ground IRI into the target vocabulary / URI
// space: level-0 property/class alignments substitute vocabulary terms,
// sameas translates instance URIs. The second return says whether the
// term changed.
func (rw *Rewriter) translateIRITerm(t rdf.Term, pattern rdf.Term) (rdf.Term, bool) {
	// Vocabulary substitution via simple (level-0) alignments.
	for _, ea := range rw.Alignments {
		if len(ea.RHS) == 1 && len(ea.FDs) == 0 &&
			ea.LHS.P.IsIRI() && ea.LHS.P.Value == t.Value && ea.RHS[0].P.IsIRI() {
			return ea.RHS[0].P, true
		}
		if ea.LHS.P.IsIRI() && ea.LHS.P.Value == rdf.RDFType &&
			ea.LHS.O.IsIRI() && ea.LHS.O.Value == t.Value &&
			len(ea.RHS) == 1 && ea.RHS[0].O.IsIRI() {
			return ea.RHS[0].O, true
		}
	}
	// Instance translation through sameas.
	if rw.Funcs != nil {
		if v, err := rw.Funcs.Call(rdf.MapSameAs, []rdf.Term{t, pattern}); err == nil {
			return v, v != t
		}
	}
	return t, false
}

// rewriteInlineData applies the same extension to VALUES rows: inline
// data constants are as unreachable by graph-pattern rewriting as FILTER
// constants, so sharded sub-queries would silently miss on rewritten
// targets without this.
func (rw *Rewriter) rewriteInlineData(d *sparql.InlineData, st *rewriteState) (int, error) {
	if rw.Opts.TargetURISpace == "" {
		return 0, fmt.Errorf("core: RewriteFilters requires Options.TargetURISpace")
	}
	pattern := rdf.NewLiteral(rw.Opts.TargetURISpace)
	n := 0
	for _, row := range d.Rows {
		for i, t := range row {
			if v, translated := rw.translate(t, pattern, st); translated {
				row[i] = v
				n++
			}
		}
	}
	return n, nil
}

// detectInlineDataConflict mirrors the Figure-6 warning for VALUES rows:
// one warning per block (with the affected-IRI count), not per row —
// sharded blocks can carry hundreds of rows.
func (rw *Rewriter) detectInlineDataConflict(d *sparql.InlineData, report *Report) {
	iris := 0
	var first string
	for _, row := range d.Rows {
		for _, t := range row {
			if t.IsIRI() {
				if iris == 0 {
					first = t.Value
				}
				iris++
			}
		}
	}
	if iris > 0 {
		report.warnf("VALUES binds %d IRI(s) (first <%s>); graph-pattern rewriting does not reach inline data (cf. paper §4, Figure 6) — enable RewriteFilters to translate them", iris, first)
	}
}
