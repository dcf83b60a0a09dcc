package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"sparqlrw/internal/raceflag"
	"sparqlrw/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }

func tr(s, p, o string) rdf.Triple {
	return rdf.NewTriple(iri(s), iri(p), iri(o))
}

func TestAddHasRemove(t *testing.T) {
	s := New()
	x := tr("s", "p", "o")
	if !s.Add(x) {
		t.Fatal("first Add must report true")
	}
	if s.Add(x) {
		t.Fatal("duplicate Add must report false")
	}
	if !s.Has(x) || s.Size() != 1 {
		t.Fatalf("Has/Size wrong after add: %v %d", s.Has(x), s.Size())
	}
	if !s.Remove(x) {
		t.Fatal("Remove of present triple must report true")
	}
	if s.Remove(x) {
		t.Fatal("Remove of absent triple must report false")
	}
	if s.Has(x) || s.Size() != 0 {
		t.Fatal("store not empty after remove")
	}
}

func TestRejectNonGround(t *testing.T) {
	s := New()
	if s.Add(rdf.NewTriple(rdf.NewVar("x"), iri("p"), iri("o"))) {
		t.Fatal("triple with variable must be rejected")
	}
	if s.Add(rdf.Triple{}) {
		t.Fatal("wildcard triple must be rejected")
	}
	// Blank nodes are allowed in data.
	if !s.Add(rdf.NewTriple(rdf.NewBlank("b"), iri("p"), iri("o"))) {
		t.Fatal("blank node subject must be accepted")
	}
}

func TestMatchAllAccessPaths(t *testing.T) {
	s := New()
	data := []rdf.Triple{
		tr("s1", "p1", "o1"), tr("s1", "p1", "o2"), tr("s1", "p2", "o1"),
		tr("s2", "p1", "o1"), tr("s2", "p2", "o3"),
	}
	for _, x := range data {
		s.Add(x)
	}
	w := rdf.Any
	cases := []struct {
		pat  rdf.Triple
		want int
	}{
		{rdf.Triple{S: iri("s1"), P: iri("p1"), O: iri("o1")}, 1},
		{rdf.Triple{S: iri("s1"), P: iri("p1"), O: w}, 2},
		{rdf.Triple{S: iri("s1"), P: w, O: iri("o1")}, 2},
		{rdf.Triple{S: w, P: iri("p1"), O: iri("o1")}, 2},
		{rdf.Triple{S: iri("s1"), P: w, O: w}, 3},
		{rdf.Triple{S: w, P: iri("p1"), O: w}, 3},
		{rdf.Triple{S: w, P: w, O: iri("o1")}, 3},
		{rdf.Triple{S: w, P: w, O: w}, 5},
		{rdf.Triple{S: iri("nope"), P: w, O: w}, 0},
		{rdf.Triple{S: iri("s1"), P: iri("p1"), O: iri("nope")}, 0},
	}
	for i, c := range cases {
		got := s.MatchAll(c.pat)
		if len(got) != c.want {
			t.Errorf("case %d: MatchAll(%v) returned %d, want %d", i, c.pat, len(got), c.want)
		}
	}
}

func TestVariablesActAsWildcards(t *testing.T) {
	s := New()
	s.Add(tr("s", "p", "o"))
	got := s.MatchAll(rdf.NewTriple(rdf.NewVar("x"), iri("p"), rdf.NewVar("y")))
	if len(got) != 1 {
		t.Fatalf("var pattern matched %d, want 1", len(got))
	}
}

func TestMatchEarlyStop(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Add(tr(fmt.Sprint("s", i), "p", "o"))
	}
	n := 0
	s.Match(rdf.Triple{}, func(rdf.Triple) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop failed: %d", n)
	}
}

func TestPredicateCount(t *testing.T) {
	s := New()
	s.Add(tr("a", "p", "b"))
	s.Add(tr("a", "p", "c"))
	s.Add(tr("a", "q", "b"))
	if s.PredicateCount(iri("p")) != 2 || s.PredicateCount(iri("q")) != 1 {
		t.Fatal("predicate counts wrong")
	}
	s.Remove(tr("a", "p", "b"))
	if s.PredicateCount(iri("p")) != 1 {
		t.Fatal("predicate count not decremented")
	}
	s.Remove(tr("a", "p", "c"))
	if s.PredicateCount(iri("p")) != 0 {
		t.Fatal("predicate count should be zero")
	}
}

func TestSubjectsObjectsFirstObject(t *testing.T) {
	s := New()
	s.Add(tr("paper1", "author", "alice"))
	s.Add(tr("paper1", "author", "bob"))
	s.Add(tr("paper2", "author", "alice"))
	subs := s.Subjects(iri("author"), iri("alice"))
	if len(subs) != 2 {
		t.Fatalf("Subjects = %v", subs)
	}
	objs := s.Objects(iri("paper1"), iri("author"))
	if len(objs) != 2 {
		t.Fatalf("Objects = %v", objs)
	}
	if _, ok := s.FirstObject(iri("paper1"), iri("author")); !ok {
		t.Fatal("FirstObject missing")
	}
	if _, ok := s.FirstObject(iri("paperX"), iri("author")); ok {
		t.Fatal("FirstObject on absent subject")
	}
}

func TestTriplesSortedDeterministic(t *testing.T) {
	s := New()
	s.Add(tr("b", "p", "x"))
	s.Add(tr("a", "p", "x"))
	g := s.Triples()
	if g[0].S != iri("a") {
		t.Fatalf("Triples not sorted: %v", g)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Add(tr(fmt.Sprint("s", w, "-", i), "p", "o"))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.MatchAll(rdf.Triple{P: iri("p")})
				s.Match(rdf.Triple{S: iri("s0-0")}, func(rdf.Triple) bool { return true })
				s.PredicateCount(iri("p"))
				s.Size()
			}
		}()
	}
	wg.Wait()
	if s.Size() != 800 {
		t.Fatalf("size = %d, want 800", s.Size())
	}
}

// Property: after any interleaving of adds and removes, Size equals the
// cardinality of the set of present triples, and the three indexes agree.
func TestAddRemoveSetSemantics(t *testing.T) {
	f := func(ops []uint16) bool {
		s := New()
		ref := map[rdf.Triple]bool{}
		for _, op := range ops {
			subj := fmt.Sprint("s", op%7)
			pred := fmt.Sprint("p", (op>>3)%5)
			obj := fmt.Sprint("o", (op>>6)%7)
			x := tr(subj, pred, obj)
			if op&1 == 0 {
				added := s.Add(x)
				if added == ref[x] {
					return false // Add must succeed iff absent
				}
				ref[x] = true
			} else {
				removed := s.Remove(x)
				if removed != ref[x] {
					return false
				}
				delete(ref, x)
			}
		}
		if s.Size() != len(ref) {
			return false
		}
		for x := range ref {
			if !s.Has(x) {
				return false
			}
			// each index must serve the triple back
			if len(s.MatchAll(rdf.Triple{S: x.S, P: x.P, O: x.O})) != 1 {
				return false
			}
		}
		return len(s.MatchAll(rdf.Triple{})) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: Match with every combination of wildcards agrees with a naive
// scan filter of the full dump.
func TestMatchAgreesWithNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	var all []rdf.Triple
	for i := 0; i < 300; i++ {
		x := tr(fmt.Sprint("s", rng.Intn(10)), fmt.Sprint("p", rng.Intn(5)), fmt.Sprint("o", rng.Intn(10)))
		if s.Add(x) {
			all = append(all, x)
		}
	}
	for mask := 0; mask < 8; mask++ {
		probe := all[rng.Intn(len(all))]
		pat := rdf.Triple{}
		if mask&1 != 0 {
			pat.S = probe.S
		}
		if mask&2 != 0 {
			pat.P = probe.P
		}
		if mask&4 != 0 {
			pat.O = probe.O
		}
		want := 0
		for _, x := range all {
			if (pat.S.IsZero() || x.S == pat.S) && (pat.P.IsZero() || x.P == pat.P) && (pat.O.IsZero() || x.O == pat.O) {
				want++
			}
		}
		if got := len(s.MatchAll(pat)); got != want {
			t.Fatalf("mask %d: MatchAll = %d, naive = %d", mask, got, want)
		}
	}
}

// A subject+predicate-bound Match with at most 8 results snapshots into
// its stack buffer: no heap allocation for encode, snapshot or decode.
func TestMatchSmallResultAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates where the plain build does not")
	}
	s := New()
	for i := 0; i < 8; i++ {
		s.Add(tr("s", "p", fmt.Sprint("o", i)))
	}
	s.Add(tr("s", "q", "o"))
	pat := rdf.Triple{S: iri("s"), P: iri("p"), O: rdf.NewVar("o")}
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		n = 0
		s.Match(pat, func(rdf.Triple) bool { n++; return true })
	})
	if n != 8 {
		t.Fatalf("Match visited %d triples, want 8", n)
	}
	if allocs != 0 {
		t.Fatalf("Match allocated %v times per call, want 0", allocs)
	}
}

// The callback runs outside the store lock on a snapshot: it may Add and
// Remove on the store it iterates without
// deadlock, and it sees exactly the triples present when Match was called.
func TestMatchCallbackMayMutate(t *testing.T) {
	for _, size := range []int{3, 20} { // inside and past the stack buffer
		s := New()
		want := map[rdf.Triple]bool{}
		for i := 0; i < size; i++ {
			x := tr("s", "p", fmt.Sprint("o", i))
			s.Add(x)
			want[x] = true
		}
		got := map[rdf.Triple]bool{}
		s.Match(rdf.Triple{S: iri("s"), P: iri("p")}, func(x rdf.Triple) bool {
			got[x] = true
			s.Add(rdf.NewTriple(x.S, x.P, rdf.NewIRI(x.O.Value+"-derived")))
			for y := range want {
				s.Remove(y) // every snapshot triple is gone after the first callback
			}
			return true
		})
		if len(got) != size {
			t.Fatalf("size %d: callback saw %d triples, want the %d of the snapshot", size, len(got), size)
		}
		for x := range got {
			if !want[x] {
				t.Fatalf("size %d: callback saw %v, which was added during Match", size, x)
			}
		}
		if s.Size() != size {
			t.Fatalf("size %d: store holds %d triples after Match, want the %d derived ones", size, s.Size(), size)
		}
	}
}

func TestDictInternRoundTrip(t *testing.T) {
	d := NewDict()
	a := rdf.NewIRI("http://example.org/a")
	b := rdf.NewLiteral("hello")
	idA := d.Intern(a)
	idB := d.Intern(b)
	if idA == idB {
		t.Fatalf("distinct terms share id %d", idA)
	}
	if again := d.Intern(a); again != idA {
		t.Fatalf("re-interning a: id %d, want %d", again, idA)
	}
	if got := d.Term(idA); got != a {
		t.Fatalf("Term(%d) = %v, want %v", idA, got, a)
	}
	if got := d.Term(idB); got != b {
		t.Fatalf("Term(%d) = %v, want %v", idB, got, b)
	}
	if _, ok := d.Lookup(rdf.NewIRI("http://example.org/unseen")); ok {
		t.Fatal("Lookup of never-interned term reported ok")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
}

func TestAddRemoveStats(t *testing.T) {
	s := New()
	typ := rdf.NewIRI(rdf.RDFType)
	person := iri("Person")
	t1 := rdf.Triple{S: iri("a"), P: typ, O: person}
	t2 := rdf.Triple{S: iri("b"), P: typ, O: person}
	if !s.Add(t1) || !s.Add(t2) {
		t.Fatal("Add returned false for fresh triples")
	}
	if s.Add(t1) {
		t.Fatal("duplicate Add returned true")
	}
	if got := s.PredicateCount(typ); got != 2 {
		t.Fatalf("PredicateCount = %d, want 2", got)
	}
	if !s.Remove(t1) {
		t.Fatal("Remove returned false for present triple")
	}
	if s.Remove(t1) {
		t.Fatal("double Remove returned true")
	}
	if got := s.PredicateCount(typ); got != 1 {
		t.Fatalf("PredicateCount after remove = %d, want 1", got)
	}
	// Removing a never-seen or never-present triple must not disturb the
	// counters.
	if s.Remove(tr("x", "y", "z")) || s.Remove(rdf.Triple{S: iri("c"), P: typ, O: person}) {
		t.Fatal("Remove of absent triple returned true")
	}
	if s.Size() != 1 || s.PredicateCount(typ) != 1 {
		t.Fatalf("Size = %d, PredicateCount = %d after no-op removes, want 1 and 1", s.Size(), s.PredicateCount(typ))
	}
	if len(s.predCount) != 1 {
		t.Fatalf("statistics = %v predicates; want rdf:type once", s.predCount)
	}
	if !s.Has(t2) || s.Has(t1) {
		t.Fatal("Has disagrees with Add/Remove history")
	}
	s.Remove(t2)
	if got := s.PredicateCount(typ); got != 0 {
		t.Fatalf("PredicateCount after last remove = %d, want 0", got)
	}
	if got := len(s.predCount); got != 0 {
		t.Fatalf("statistics kept %d zero entries", got)
	}
}

func TestScanLazyAndClear(t *testing.T) {
	s := New()
	for _, o := range []string{"o1", "o2", "o3"} {
		s.Add(tr("s", "p", o))
	}
	n := 0
	for range s.Scan(rdf.Triple{}) {
		n++
		if n == 2 {
			break // early break must be safe
		}
	}
	if n != 2 {
		t.Fatalf("early break consumed %d, want 2", n)
	}
	dictLen := s.Dict().Len()
	s.Clear()
	if s.Size() != 0 || len(s.MatchAll(rdf.Triple{})) != 0 || s.PredicateCount(iri("p")) != 0 {
		t.Fatal("Clear left triples or statistics behind")
	}
	if s.Dict().Len() != dictLen {
		t.Fatal("Clear shrank the dictionary")
	}
	// Refill after Clear re-uses interned ids.
	if !s.Add(tr("s", "p", "o1")) {
		t.Fatal("Add after Clear failed")
	}
	if s.Dict().Len() != dictLen {
		t.Fatalf("refill grew the dictionary: %d -> %d", dictLen, s.Dict().Len())
	}
}

// Stores built over one dictionary agree on ids, so a term interned by
// one decodes in the other.
func TestNewWithSharesDict(t *testing.T) {
	d := NewDict()
	a, b := NewWith(d), NewWith(d)
	a.Add(tr("s", "p", "o"))
	id, ok := b.Dict().Lookup(iri("o"))
	if !ok || d.Term(id) != iri("o") {
		t.Fatalf("term interned through one store not visible through the other: id %d ok %v", id, ok)
	}
	if b.Size() != 0 {
		t.Fatal("a shared dictionary must not share triples")
	}
}

func BenchmarkAddTriples(b *testing.B) {
	b.ReportAllocs()
	s := New()
	for i := 0; i < b.N; i++ {
		s.Add(tr(fmt.Sprint("s", i%1000), fmt.Sprint("p", i%10), fmt.Sprint("o", i)))
	}
}

func BenchmarkMatchByPredicate(b *testing.B) {
	s := New()
	for i := 0; i < 10000; i++ {
		s.Add(tr(fmt.Sprint("s", i%100), fmt.Sprint("p", i%10), fmt.Sprint("o", i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MatchAll(rdf.Triple{S: iri(fmt.Sprint("s", i%100)), P: iri("p1")})
	}
}
