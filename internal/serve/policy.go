package serve

import (
	"errors"
	"fmt"
	"regexp"
	"strings"

	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
)

// ErrDenied marks a query refused by tenant policy; the protocol
// endpoint maps it to 403.
var ErrDenied = errors.New("denied by tenant policy")

// Policy restricts what a tenant may read. Access control rides the
// same rewriting pipeline as ontology integration: restrictions are
// injected into the query algebra before planning, so a restricted
// tenant's query is — by construction — one that cannot match triples
// outside its grant, no matter which endpoints it federates to.
type Policy struct {
	// Datasets allowlists the data set URIs the tenant may query (empty
	// = all). It is the request's source set: the planner, the decomposer,
	// the view tier and DESCRIBE consider only these data sets, and
	// explicit out-of-list targets are refused.
	Datasets []string `json:"datasets,omitempty"`
	// URISpaces allowlists subject URI prefixes: the tenant may only
	// read triples whose subject lies in one of the spaces. Ground
	// out-of-space subjects are refused; variable subjects get a
	// per-group FILTER REGEX(STR(?s), "^(?:space…)") injected.
	URISpaces []string `json:"uriSpaces,omitempty"`
	// DeniedPredicates blocklists predicate IRIs. Ground uses are
	// refused; variable predicates get inequality filters injected.
	DeniedPredicates []string `json:"deniedPredicates,omitempty"`
}

// isZero reports a nil or empty policy (nothing to enforce).
func (p *Policy) isZero() bool {
	return p == nil || (len(p.Datasets) == 0 && len(p.URISpaces) == 0 && len(p.DeniedPredicates) == 0)
}

// rewrites reports whether the policy changes the query algebra (the
// dataset allowlist restricts the request's source set instead).
func (p *Policy) rewrites() bool {
	return p != nil && (len(p.URISpaces) > 0 || len(p.DeniedPredicates) > 0)
}

func (p *Policy) validate() error {
	if p == nil {
		return nil
	}
	for _, d := range p.Datasets {
		if strings.TrimSpace(d) == "" {
			return fmt.Errorf("empty datasets entry")
		}
	}
	for _, s := range p.URISpaces {
		if strings.TrimSpace(s) == "" {
			return fmt.Errorf("empty uriSpaces entry")
		}
	}
	for _, d := range p.DeniedPredicates {
		if strings.TrimSpace(d) == "" {
			return fmt.Errorf("empty deniedPredicates entry")
		}
	}
	return nil
}

// AllowedDatasets is the nil-safe dataset allowlist accessor (nil or
// empty = all data sets permitted).
func (p *Policy) AllowedDatasets() []string {
	if p == nil {
		return nil
	}
	return p.Datasets
}

// inSpace reports whether an IRI lies in one of the allowed URI spaces.
func (p *Policy) inSpace(iri string) bool {
	for _, s := range p.URISpaces {
		if strings.HasPrefix(iri, s) {
			return true
		}
	}
	return false
}

// Restrict injects the policy into a parsed query, returning the
// restricted clone (q itself is never mutated) and whether anything
// changed. Queries that can only match denied data are refused with an
// error wrapping ErrDenied:
//
//   - a ground subject outside every allowed URI space,
//   - a ground denied predicate,
//   - a blank-node subject under a URI-space restriction (it could bind
//     anywhere, and no filter can name it),
//   - DESCRIBE of a ground out-of-space resource.
//
// Variable subjects are constrained per group with
// FILTER REGEX(STR(?s), "^(?:space1|space2…)") over QuoteMeta'd space
// prefixes; variable predicates with inequality filters against the
// denylist. The filters ride the ordinary rewriting pipeline — they are
// translated and shipped to the endpoints like any user filter, and the
// mediator-side evaluator enforces them again on the multi-source path.
func Restrict(q *sparql.Query, p *Policy) (*sparql.Query, bool, error) {
	if !p.rewrites() {
		return q, false, nil
	}
	denied := make(map[string]bool, len(p.DeniedPredicates))
	for _, d := range p.DeniedPredicates {
		denied[d] = true
	}
	if q.Form == sparql.Describe && len(p.URISpaces) > 0 {
		for _, t := range q.DescribeTerms {
			if t.IsIRI() && !p.inSpace(t.Value) {
				return nil, false, fmt.Errorf("serve: DESCRIBE <%s>: %w", t.Value, ErrDenied)
			}
		}
	}
	out := q.Clone()
	if err := p.restrictGroup(out.Where, denied); err != nil {
		return nil, false, err
	}
	return out, true, nil
}

// restrictGroup enforces the policy on one group graph pattern and
// recurses into nested groups, OPTIONALs and UNION branches. Injected
// filters are appended to the group whose basic graph patterns mention
// the constrained variable, so they scope exactly where the variable
// binds.
func (p *Policy) restrictGroup(g *sparql.GroupGraphPattern, denied map[string]bool) error {
	if g == nil {
		return nil
	}
	var subjVars, predVars []string
	seenSubj := map[string]bool{}
	seenPred := map[string]bool{}
	for _, el := range g.Elements {
		switch e := el.(type) {
		case *sparql.BGP:
			for _, tp := range e.Patterns {
				if tp.P.IsIRI() && denied[tp.P.Value] {
					return fmt.Errorf("serve: predicate <%s>: %w", tp.P.Value, ErrDenied)
				}
				if tp.P.IsVar() && len(denied) > 0 && !seenPred[tp.P.Value] {
					seenPred[tp.P.Value] = true
					predVars = append(predVars, tp.P.Value)
				}
				if len(p.URISpaces) > 0 {
					switch {
					case tp.S.IsIRI():
						if !p.inSpace(tp.S.Value) {
							return fmt.Errorf("serve: subject <%s>: %w", tp.S.Value, ErrDenied)
						}
					case tp.S.IsVar():
						if !seenSubj[tp.S.Value] {
							seenSubj[tp.S.Value] = true
							subjVars = append(subjVars, tp.S.Value)
						}
					default:
						return fmt.Errorf("serve: blank-node subject under URI-space restriction: %w", ErrDenied)
					}
				}
			}
		case *sparql.SubGroup:
			if err := p.restrictGroup(e.Group, denied); err != nil {
				return err
			}
		case *sparql.Optional:
			if err := p.restrictGroup(e.Group, denied); err != nil {
				return err
			}
		case *sparql.Union:
			for _, alt := range e.Alternatives {
				if err := p.restrictGroup(alt, denied); err != nil {
					return err
				}
			}
		}
	}
	for _, v := range subjVars {
		g.Elements = append(g.Elements, &sparql.Filter{Expr: p.spaceFilter(v)})
	}
	for _, v := range predVars {
		if f := deniedFilter(v, p.DeniedPredicates); f != nil {
			g.Elements = append(g.Elements, &sparql.Filter{Expr: f})
		}
	}
	return nil
}

// spaceFilter builds REGEX(STR(?v), "^(?:space1|space2…)") — an
// anchored prefix match over the QuoteMeta'd allowed spaces.
func (p *Policy) spaceFilter(v string) sparql.Expression {
	alts := make([]string, len(p.URISpaces))
	for i, s := range p.URISpaces {
		alts[i] = regexp.QuoteMeta(s)
	}
	pattern := "^(?:" + strings.Join(alts, "|") + ")"
	return &sparql.Call{Name: "REGEX", Args: []sparql.Expression{
		&sparql.Call{Name: "STR", Args: []sparql.Expression{
			&sparql.TermExpr{Term: rdf.NewVar(v)},
		}},
		&sparql.TermExpr{Term: rdf.NewLiteral(pattern)},
	}}
}

// deniedFilter builds ?v != <d1> && ?v != <d2> && … for a variable
// predicate under a denylist.
func deniedFilter(v string, deniedPreds []string) sparql.Expression {
	var expr sparql.Expression
	for _, d := range deniedPreds {
		ne := &sparql.Binary{Op: "!=",
			L: &sparql.TermExpr{Term: rdf.NewVar(v)},
			R: &sparql.TermExpr{Term: rdf.NewIRI(d)},
		}
		if expr == nil {
			expr = ne
		} else {
			expr = &sparql.Binary{Op: "&&", L: expr, R: ne}
		}
	}
	return expr
}
