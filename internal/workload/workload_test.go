package workload

import (
	"testing"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig())
	b := Generate(DefaultConfig())
	if a.Southampton.Size() != b.Southampton.Size() || a.KISTI.Size() != b.KISTI.Size() {
		t.Fatal("generation not deterministic in sizes")
	}
	if a.Southampton.Size() == 0 || a.KISTI.Size() == 0 {
		t.Fatal("empty stores")
	}
	// Different seed changes the data.
	cfg := DefaultConfig()
	cfg.Seed = 7
	c := Generate(cfg)
	if c.KISTI.Size() == a.KISTI.Size() && c.Southampton.Size() == a.Southampton.Size() {
		// sizes can coincide; compare author sets
		same := true
		for k, v := range a.Authors {
			w, ok := c.Authors[k]
			if !ok || len(v) != len(w) {
				same = false
				break
			}
			for i := range v {
				if v[i] != w[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatal("different seed produced identical universe")
		}
	}
}

func TestSouthamptonShape(t *testing.T) {
	u := Generate(DefaultConfig())
	e := eval.New(u.Southampton)
	res, err := e.Select(sparql.MustParse(Figure1Query(0)))
	if err != nil {
		t.Fatal(err)
	}
	want := u.CoAuthorsIn(0, "southampton")
	if len(res.Solutions) != len(want) {
		t.Fatalf("figure-1 query found %d co-authors, ground truth %d", len(res.Solutions), len(want))
	}
	for _, s := range res.Solutions {
		if !s["a"].IsIRI() {
			t.Fatalf("non-IRI co-author: %v", s)
		}
	}
}

func TestKISTIUsesIndirectionAndOwnURIs(t *testing.T) {
	u := Generate(DefaultConfig())
	// No akt vocabulary in KISTI.
	if got := u.KISTI.PredicateCount(rdf.NewIRI(rdf.AKTHasAuthor)); got != 0 {
		t.Fatalf("KISTI contains akt:has-author: %d", got)
	}
	// Every hasCreator subject is a CreatorInfo instance.
	for _, tr := range u.KISTI.MatchAll(rdf.Triple{P: rdf.NewIRI(rdf.KISTIHasCreator)}) {
		if !u.KISTI.Has(rdf.NewTriple(tr.S, rdf.NewIRI(rdf.RDFType), rdf.NewIRI(rdf.KISTICreatorInfo))) {
			t.Fatalf("creator info missing type: %v", tr.S)
		}
	}
	// URI spaces are disjoint.
	for _, tr := range u.KISTI.MatchAll(rdf.Triple{}) {
		if tr.S.IsIRI() && len(tr.S.Value) >= len(SotonIDSpace) && tr.S.Value[:len(SotonIDSpace)] == SotonIDSpace {
			t.Fatalf("southampton URI leaked into KISTI: %v", tr.S)
		}
	}
}

func TestCorefLinksMirroredEntities(t *testing.T) {
	u := Generate(DefaultConfig())
	if len(u.MirroredPapers) == 0 {
		t.Fatal("no mirrored papers")
	}
	j := u.MirroredPapers[0]
	if u.Coref.Canonical(SotonPaper(j).Value) != u.Coref.Canonical(KistiPaper(j).Value) {
		t.Fatal("mirrored paper not co-referenced")
	}
	// Authors of mirrored papers are co-referenced.
	a := u.Authors["s"+itoa(j)][0]
	if u.Coref.Canonical(SotonPerson(a).Value) != u.Coref.Canonical(KistiPerson(a).Value) {
		t.Fatal("author of mirrored paper not co-referenced")
	}
}

func itoa(i int) string { return fmt_Sprint(i) }

func fmt_Sprint(i int) string {
	// tiny helper to avoid importing fmt twice in tests
	if i == 0 {
		return "0"
	}
	var digits []byte
	for i > 0 {
		digits = append([]byte{byte('0' + i%10)}, digits...)
		i /= 10
	}
	return string(digits)
}

func TestCoAuthorsGroundTruth(t *testing.T) {
	u := Generate(DefaultConfig())
	full := u.CoAuthors(0)
	soton := u.CoAuthorsIn(0, "southampton")
	kisti := u.CoAuthorsIn(0, "kisti")
	// The union of per-dataset views equals the global ground truth.
	union := map[int]bool{}
	for a := range soton {
		union[a] = true
	}
	for a := range kisti {
		union[a] = true
	}
	if len(union) != len(full) {
		t.Fatalf("union %d != full %d", len(union), len(full))
	}
	// KISTI view must be a subset of full.
	for a := range kisti {
		if !full[a] {
			t.Fatalf("kisti co-author %d not in ground truth", a)
		}
	}
}

func TestAKT2KISTICardinality(t *testing.T) {
	oa := AKT2KISTI()
	if err := oa.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(oa.Alignments) != 24 {
		t.Fatalf("AKT↔KISTI alignments = %d, paper reports 24", len(oa.Alignments))
	}
	// the complex alignment is present and level 2
	found := false
	for _, ea := range oa.Alignments {
		if ea.ID == akt2kistiNS+"creator_info" {
			found = true
			if ea.Level() != 2 || len(ea.RHS) != 2 || len(ea.FDs) != 2 {
				t.Fatalf("creator_info shape wrong: %v", ea)
			}
		}
	}
	if !found {
		t.Fatal("creator_info alignment missing")
	}
	if len(oa.TargetDatasets) != 1 || oa.TargetDatasets[0] != KistiVoidURI {
		t.Fatalf("TD = %v", oa.TargetDatasets)
	}
}

func TestECS2DBpediaCardinality(t *testing.T) {
	oa := ECS2DBpedia()
	if err := oa.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(oa.Alignments) != 42 {
		t.Fatalf("ECS↔DBpedia alignments = %d, paper reports 42", len(oa.Alignments))
	}
	// Mixed levels are present, as the paper describes "mixed concept and
	// properties alignments".
	levels := map[int]int{}
	for _, ea := range oa.Alignments {
		levels[ea.Level()]++
	}
	if levels[0] == 0 || levels[1] == 0 || levels[2] == 0 {
		t.Fatalf("level mix = %v", levels)
	}
	if len(oa.TargetDatasets) != 0 {
		t.Fatal("ECS↔DBpedia should be data-set-independent")
	}
}

func TestSyntheticAlignmentsAndQueries(t *testing.T) {
	eas := SyntheticAlignments(16)
	if len(eas) != 16 {
		t.Fatalf("synthetic = %d", len(eas))
	}
	for _, ea := range eas {
		if err := ea.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	q := SyntheticBGPQuery(8, 16)
	parsed := sparql.MustParse(q)
	if len(parsed.BGPs()[0].Patterns) != 8 {
		t.Fatalf("synthetic query size wrong")
	}
}

func TestOverlapFractionRespected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Overlap = 0.25
	u := Generate(cfg)
	got := float64(len(u.MirroredPapers)) / float64(cfg.Papers)
	if got < 0.2 || got > 0.3 {
		t.Fatalf("overlap = %f, want ~0.25", got)
	}
	cfg.Overlap = 0
	u0 := Generate(cfg)
	if len(u0.MirroredPapers) != 0 {
		t.Fatal("zero overlap produced mirrors")
	}
}
