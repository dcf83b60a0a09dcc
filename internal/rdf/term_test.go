package rdf

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructorsAndPredicates(t *testing.T) {
	iri := NewIRI("http://example.org/a")
	if !iri.IsIRI() || iri.IsLiteral() || iri.IsBlank() || iri.IsVar() {
		t.Fatalf("IRI kind predicates wrong: %+v", iri)
	}
	if !iri.IsGround() {
		t.Fatal("IRI must be ground")
	}
	lit := NewLiteral("hello")
	if !lit.IsLiteral() || !lit.IsGround() {
		t.Fatalf("literal predicates wrong: %+v", lit)
	}
	b := NewBlank("b0")
	if !b.IsBlank() || b.IsGround() {
		t.Fatalf("blank predicates wrong: %+v", b)
	}
	v := NewVar("x")
	if !v.IsVar() || v.IsGround() {
		t.Fatalf("var predicates wrong: %+v", v)
	}
	if !Any.IsZero() {
		t.Fatal("Any must be zero")
	}
}

func TestTermEqualityAsMapKey(t *testing.T) {
	m := map[Term]int{}
	m[NewIRI("http://a")] = 1
	m[NewLiteral("a")] = 2
	m[NewTypedLiteral("a", XSDInteger)] = 3
	m[NewLangLiteral("a", "en")] = 4
	if len(m) != 4 {
		t.Fatalf("distinct terms collided in map: %v", m)
	}
	if m[NewIRI("http://a")] != 1 {
		t.Fatal("lookup by equal value failed")
	}
}

func TestLangTagNormalised(t *testing.T) {
	a := NewLangLiteral("chat", "EN")
	b := NewLangLiteral("chat", "en")
	if a != b {
		t.Fatalf("language tags should be case-normalised: %v vs %v", a, b)
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://example.org/x"), "<http://example.org/x>"},
		{NewLiteral("plain"), `"plain"`},
		{NewTypedLiteral("5", XSDInteger), `"5"^^<` + XSDInteger + `>`},
		{NewLangLiteral("chat", "fr"), `"chat"@fr`},
		{NewBlank("p1"), "_:p1"},
		{NewVar("paper"), "?paper"},
		{Any, "*"},
		{NewLiteral("a\"b\\c\nd"), `"a\"b\\c\nd"`},
		{NewTypedLiteral("x", XSDString), `"x"`}, // xsd:string elided
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.term, got, c.want)
		}
	}
}

func TestNumericAccessors(t *testing.T) {
	if v, ok := NewInteger(42).Int(); !ok || v != 42 {
		t.Fatalf("Int() = %v %v", v, ok)
	}
	if v, ok := NewInteger(42).Float(); !ok || v != 42 {
		t.Fatalf("Float() = %v %v", v, ok)
	}
	if v, ok := NewDecimal(2.5).Float(); !ok || v != 2.5 {
		t.Fatalf("decimal Float() = %v %v", v, ok)
	}
	if _, ok := NewLiteral("42").Int(); ok {
		t.Fatal("plain literal must not be numeric")
	}
	if v, ok := NewBoolean(true).Bool(); !ok || !v {
		t.Fatalf("Bool() = %v %v", v, ok)
	}
	if _, ok := NewLiteral("true").Bool(); ok {
		t.Fatal("plain literal must not be boolean")
	}
	if !NewDouble(1e10).IsNumericLiteral() {
		t.Fatal("double must be numeric")
	}
}

func TestTermCompareTotalOrder(t *testing.T) {
	terms := []Term{
		NewIRI("http://a"), NewIRI("http://b"),
		NewLiteral("a"), NewTypedLiteral("a", XSDInteger),
		NewBlank("x"), NewVar("x"),
	}
	for i, a := range terms {
		if a.Compare(a) != 0 {
			t.Errorf("Compare(self) != 0 for %v", a)
		}
		for j, b := range terms {
			ab, ba := a.Compare(b), b.Compare(a)
			if (ab < 0) != (ba > 0) && !(ab == 0 && ba == 0) {
				t.Errorf("antisymmetry violated for %d,%d (%v,%v)", i, j, a, b)
			}
		}
	}
}

func TestTripleVarsAndGround(t *testing.T) {
	tr := NewTriple(NewVar("p"), NewIRI(AKTHasAuthor), NewVar("p"))
	vars := tr.Vars()
	if len(vars) != 1 || vars[0] != "p" {
		t.Fatalf("Vars() = %v, want [p]", vars)
	}
	if tr.IsGround() {
		t.Fatal("pattern with vars must not be ground")
	}
	g := NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewLiteral("o"))
	if !g.IsGround() {
		t.Fatal("ground triple misreported")
	}
}

func TestGraphDedupSort(t *testing.T) {
	a := NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewLiteral("1"))
	b := NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewLiteral("2"))
	g := Graph{b, a, b, a, a}
	d := g.Dedup()
	if len(d) != 2 {
		t.Fatalf("Dedup len = %d, want 2", len(d))
	}
	d.Sort()
	if d[0] != a || d[1] != b {
		t.Fatalf("Sort order wrong: %v", d)
	}
	if !strings.Contains(g.String(), " .\n") {
		t.Fatal("Graph.String must emit statement terminators")
	}
}

// Property: appendQuoted always round-trips through a simple unescape.
func TestQuoteLiteralProperty(t *testing.T) {
	f := func(s string) bool {
		q := string(appendQuoted(nil, s))
		if len(q) < 2 || q[0] != '"' || q[len(q)-1] != '"' {
			return false
		}
		// unescape
		body := q[1 : len(q)-1]
		var b strings.Builder
		for i := 0; i < len(body); i++ {
			if body[i] == '\\' && i+1 < len(body) {
				i++
				switch body[i] {
				case 'n':
					b.WriteByte('\n')
				case 'r':
					b.WriteByte('\r')
				case 't':
					b.WriteByte('\t')
				default:
					b.WriteByte(body[i])
				}
				continue
			}
			b.WriteByte(body[i])
		}
		return b.String() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare is a total order consistent with equality.
func TestCompareConsistentWithEquality(t *testing.T) {
	f := func(av, bv string, ak, bk uint8) bool {
		a := Term{Kind: TermKind(ak%4) + 1, Value: av}
		b := Term{Kind: TermKind(bk%4) + 1, Value: bv}
		if a == b {
			return a.Compare(b) == 0
		}
		return a.Compare(b) != 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTermKindString(t *testing.T) {
	for k, want := range map[TermKind]string{
		KindAny: "any", KindIRI: "iri", KindLiteral: "literal",
		KindBlank: "blank", KindVar: "var", TermKind(99): "TermKind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("TermKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
