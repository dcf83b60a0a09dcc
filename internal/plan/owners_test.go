package plan

import (
	"strings"
	"testing"

	"sparqlrw/internal/coref"
	"sparqlrw/internal/raceflag"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/workload"
)

// ownersFixture is the four-data-set KB with person 1's Southampton and
// KISTI spellings linked, plus an alias in no registered URI space.
func ownersFixture(t *testing.T) (*Planner, Target, Target) {
	t.Helper()
	dsKB, alignKB := fourDatasetKB(t)
	cs := coref.NewStore()
	cs.Add(workload.SotonPerson(1).Value, workload.KistiPerson(1).Value)
	cs.Add(workload.SotonPerson(1).Value, "http://elsewhere.example/person-1")
	p := New(dsKB, alignKB, cs, nil, Options{})
	soton, _ := dsKB.Get(workload.SotonVoidURI)
	kisti, _ := dsKB.Get(workload.KistiVoidURI)
	return p, p.Target(soton, false), p.Target(kisti, false)
}

// TestOwnersSpellings pins the owner lookup's rule: a data set holds the
// members of an IRI's owl:sameAs class in its URI space and, unless it
// rewrites, those in no registered space, and receives an IRI of another
// space as its own member of the class.
func TestOwnersSpellings(t *testing.T) {
	p, soton, kisti := ownersFixture(t)
	o := p.Owners()
	rewritten := kisti
	rewritten.NeedsRewrite = true
	sp, kp, elsewhere := workload.SotonPerson(1).Value, workload.KistiPerson(1).Value, "http://elsewhere.example/person-1"
	for _, c := range []struct {
		t    Target
		iri  string
		want bool
	}{
		{soton, sp, true}, {soton, kp, false}, {soton, elsewhere, true},
		{kisti, kp, true}, {kisti, sp, false}, {kisti, elsewhere, true},
		{rewritten, kp, true}, {rewritten, sp, false}, {rewritten, elsewhere, false},
	} {
		if got := o.Holds(c.t, c.iri); got != c.want {
			t.Errorf("%s (rewrites: %v) holds %s = %v, want %v", c.t.Dataset, c.t.NeedsRewrite, c.iri, got, c.want)
		}
	}
	if got, ok := o.Spelling(soton, kp); !ok || got != sp {
		t.Errorf("Southampton spells %s as %s, %v; want %s", kp, got, ok, sp)
	}
	if got, ok := o.Spelling(soton, workload.KistiPerson(2).Value); ok {
		t.Errorf("Southampton spells an unlinked KISTI person as %s", got)
	}
	if n := len(o.Class(kp)); n != 3 {
		t.Errorf("class of %s has %d members, want 3", kp, n)
	}
}

// TestRespellAllocs: a native target receives the Figure-1 query in its
// own spellings, in the BGP and in the FILTER; a query already in them is
// handed back as it is, with no allocation.
func TestRespellAllocs(t *testing.T) {
	p, soton, _ := ownersFixture(t)
	o := p.Owners()
	canonical := sparql.MustParse(workload.Figure1Query(1))
	aliased := sparql.MustParse(strings.ReplaceAll(workload.Figure1Query(1),
		workload.SotonPerson(1).Value, workload.KistiPerson(1).Value))
	got := o.Respell(aliased, soton)
	if got == aliased || sparql.Format(got) != sparql.Format(canonical) {
		t.Errorf("Respell gave\n%s\nwant\n%s", sparql.Format(got), sparql.Format(canonical))
	}
	if strings.Contains(sparql.Format(aliased), workload.SotonIDSpace) {
		t.Error("Respell modified the query it was given")
	}
	if o.Respell(canonical, soton) != canonical {
		t.Error("a query in the target's spellings was copied")
	}
	if !raceflag.Enabled {
		if n := testing.AllocsPerRun(100, func() { o.Respell(canonical, soton) }); n != 0 {
			t.Errorf("Respell of a query in the target's spellings allocates %.0f times, want 0", n)
		}
	}
}

// TestSelectReachesThroughCoreference: Southampton answers the Figure-1
// query naming person 1 by its KISTI spelling, through co-reference, and
// its decision names the spelling; without co-reference it is pruned.
func TestSelectReachesThroughCoreference(t *testing.T) {
	p, _, _ := ownersFixture(t)
	q := sparql.MustParse(strings.ReplaceAll(workload.Figure1Query(1),
		workload.SotonPerson(1).Value, workload.KistiPerson(1).Value))
	sel, err := p.Select(q, rdf.AKTNS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := datasets(sel); len(got) != 2 {
		t.Fatalf("cover = %v, want Southampton and KISTI", got)
	}
	for _, dec := range sel.Decisions {
		why := strings.Join(dec.Reasons, "; ")
		coref := strings.Contains(why, "through co-reference, as <"+workload.SotonPerson(1).Value+">")
		if coref != (dec.Dataset == workload.SotonVoidURI) {
			t.Errorf("%s: reasons %q", dec.Dataset, why)
		}
	}

	dsKB, alignKB := fourDatasetKB(t)
	sel, err = New(dsKB, alignKB, nil, nil, Options{}).Select(q, rdf.AKTNS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := datasets(sel); len(got) != 1 || got[0] != workload.KistiVoidURI {
		t.Fatalf("cover without co-reference = %v, want KISTI alone", got)
	}
}
