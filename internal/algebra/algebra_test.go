package algebra

import (
	"strings"
	"testing"

	"sparqlrw/internal/sparql"
)

func TestTranslateSelectModifiers(t *testing.T) {
	q := sparql.MustParse(`
PREFIX ex: <http://example.org/>
SELECT DISTINCT ?s WHERE { ?s ex:p ?o } ORDER BY ?s LIMIT 5 OFFSET 1`)
	op := Translate(q)
	sl, ok := op.(*Slice)
	if !ok || sl.Limit != 5 || sl.Offset != 1 {
		t.Fatalf("top = %T", op)
	}
	d, ok := sl.Input.(*Distinct)
	if !ok {
		t.Fatalf("slice input = %T", sl.Input)
	}
	p, ok := d.Input.(*Project)
	if !ok || p.Vars[0] != "s" {
		t.Fatalf("distinct input = %T", d.Input)
	}
	if _, ok := p.Input.(*OrderBy); !ok {
		t.Fatalf("project input = %T", p.Input)
	}
}

func TestFilterAppliesToWholeGroup(t *testing.T) {
	// Triples on both sides of a FILTER form ONE basic graph pattern per
	// the SPARQL algebra (the Figure-6 subtlety the paper discusses).
	q := sparql.MustParse(`
PREFIX ex: <http://example.org/>
SELECT * WHERE { ?a ex:p ?b . FILTER(?b > 1) ?b ex:q ?c . }`)
	op := Translate(q)
	proj := op.(*Project)
	f, ok := proj.Input.(*Filter)
	if !ok {
		t.Fatalf("expected Filter at group top, got %T", proj.Input)
	}
	bgp, ok := f.Input.(*BGP)
	if !ok {
		t.Fatalf("filter input = %T", f.Input)
	}
	if len(bgp.Patterns) != 2 {
		t.Fatalf("BGP must merge across FILTER: %d patterns", len(bgp.Patterns))
	}
}

func TestOptionalBecomesLeftJoinWithExpr(t *testing.T) {
	q := sparql.MustParse(`
PREFIX ex: <http://example.org/>
SELECT * WHERE { ?s ex:p ?o OPTIONAL { ?s ex:q ?q FILTER(?q > 3) } }`)
	proj := Translate(q).(*Project)
	lj, ok := proj.Input.(*LeftJoin)
	if !ok {
		t.Fatalf("expected LeftJoin, got %T", proj.Input)
	}
	if lj.Expr == nil {
		t.Fatal("optional's filter must become the left-join expression")
	}
	if _, ok := lj.R.(*BGP); !ok {
		t.Fatalf("leftjoin right = %T", lj.R)
	}
}

// TestOptionalLiftsEveryFilter: all FILTERs of an OPTIONAL group, not only
// the last-written, join the left-join condition (in written order), where
// the left operand's variables are in scope.
func TestOptionalLiftsEveryFilter(t *testing.T) {
	q := sparql.MustParse(`
PREFIX ex: <http://example.org/>
SELECT * WHERE { ?x ex:p ?z OPTIONAL { ?x ex:q ?y FILTER(?z = ?y) FILTER(?y > 1) } }`)
	lj, ok := Translate(q).(*Project).Input.(*LeftJoin)
	if !ok {
		t.Fatalf("expected LeftJoin, got %T", Translate(q).(*Project).Input)
	}
	if _, ok := lj.R.(*BGP); !ok {
		t.Fatalf("leftjoin right = %T, want the bare BGP", lj.R)
	}
	and, ok := lj.Expr.(*sparql.Binary)
	if !ok || and.Op != "&&" {
		t.Fatalf("leftjoin expression = %#v, want a conjunction", lj.Expr)
	}
	if l, r := sparql.FormatExpr(and.L, nil), sparql.FormatExpr(and.R, nil); !strings.Contains(l, "?z = ?y") || !strings.Contains(r, "?y > ") {
		t.Fatalf("conjuncts = %s, %s", l, r)
	}
}

func TestUnionFoldsLeft(t *testing.T) {
	q := sparql.MustParse(`
PREFIX ex: <http://example.org/>
SELECT * WHERE { { ?s ex:a ?o } UNION { ?s ex:b ?o } UNION { ?s ex:c ?o } }`)
	proj := Translate(q).(*Project)
	u1, ok := proj.Input.(*Union)
	if !ok {
		t.Fatalf("top = %T", proj.Input)
	}
	if _, ok := u1.L.(*Union); !ok {
		t.Fatalf("left fold expected, got %T", u1.L)
	}
}

func TestEmptyGroupIsUnit(t *testing.T) {
	q := sparql.MustParse(`ASK {}`)
	op := Translate(q)
	if _, ok := op.(*Unit); !ok {
		t.Fatalf("empty group = %T", op)
	}
}

func TestReducedTranslates(t *testing.T) {
	q := sparql.MustParse(`PREFIX ex: <http://x/> SELECT REDUCED ?s WHERE { ?s ex:p ?o }`)
	if _, ok := Translate(q).(*Reduced); !ok {
		t.Fatal("REDUCED lost in translation")
	}
}
