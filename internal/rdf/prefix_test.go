package rdf

import "testing"

func TestPrefixExpandShrink(t *testing.T) {
	pm := StandardPrefixes()
	iri, err := pm.Expand("akt:has-author")
	if err != nil {
		t.Fatal(err)
	}
	if iri != AKTHasAuthor {
		t.Fatalf("Expand = %q, want %q", iri, AKTHasAuthor)
	}
	q, ok := pm.Shrink(AKTHasAuthor)
	if !ok || q != "akt:has-author" {
		t.Fatalf("Shrink = %q %v", q, ok)
	}
}

func TestPrefixExpandErrors(t *testing.T) {
	pm := NewPrefixMap()
	if _, err := pm.Expand("nope:x"); err == nil {
		t.Fatal("expected unbound prefix error")
	}
	if _, err := pm.Expand("noQName"); err == nil {
		t.Fatal("expected not-a-QName error")
	}
}

func TestShrinkLongestNamespaceWins(t *testing.T) {
	pm := NewPrefixMap()
	pm.Bind("a", "http://example.org/")
	pm.Bind("b", "http://example.org/deep/")
	q, ok := pm.Shrink("http://example.org/deep/x")
	if !ok || q != "b:x" {
		t.Fatalf("Shrink = %q %v, want b:x", q, ok)
	}
}

// TestShrinkSkipsNamespacesLeavingBadLocalNames: a longer namespace that
// leaves no valid local name does not stop a shorter one from shrinking
// the IRI, so dropping the longer binding (as a formatted prologue drops
// an unused one) cannot change how the IRI is written.
func TestShrinkSkipsNamespacesLeavingBadLocalNames(t *testing.T) {
	pm := NewPrefixMap()
	pm.Bind("ex", "http://example.org/")
	pm.Bind("deep", "http://example.org/deep")
	if q, ok := pm.Shrink("http://example.org/deep"); !ok || q != "ex:deep" {
		t.Fatalf("Shrink = %q %v, want ex:deep", q, ok)
	}
}

func TestShrinkRejectsBadLocalNames(t *testing.T) {
	pm := NewPrefixMap()
	pm.Bind("ex", "http://example.org/")
	for _, iri := range []string{
		"http://example.org/",       // empty local
		"http://example.org/a/b",    // slash in local
		"http://example.org/x#y",    // hash in local
		"http://example.org/-lead",  // leading hyphen
		"http://example.org/trail.", // trailing dot
		"http://other.org/x",        // unmatched namespace
	} {
		if q, ok := pm.Shrink(iri); ok {
			t.Errorf("Shrink(%q) unexpectedly ok: %q", iri, q)
		}
	}
	if q, ok := pm.Shrink("http://example.org/per-son.x"); !ok || q != "ex:per-son.x" {
		t.Errorf("interior - and . should be accepted, got %q %v", q, ok)
	}
}

func TestResolveIRI(t *testing.T) {
	pm := NewPrefixMap()
	pm.SetBase("http://example.org/dir/doc")
	cases := map[string]string{
		"http://abs.example/x": "http://abs.example/x",
		"other":                "http://example.org/dir/other",
		"#frag":                "http://example.org/dir/doc#frag",
	}
	for in, want := range cases {
		if got := pm.ResolveIRI(in); got != want {
			t.Errorf("ResolveIRI(%q) = %q, want %q", in, got, want)
		}
	}
	empty := NewPrefixMap()
	if got := empty.ResolveIRI("rel"); got != "rel" {
		t.Errorf("no-base resolve changed input: %q", got)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	pm := NewPrefixMap()
	pm.Bind("a", "http://a/")
	c := pm.Clone()
	c.Bind("b", "http://b/")
	if _, ok := pm.Namespace("b"); ok {
		t.Fatal("Clone leaked binding into original")
	}
	if got := len(pm.Prefixes()); got != 1 {
		t.Fatalf("original has %d prefixes, want 1", got)
	}
	if c.Len() != 2 {
		t.Fatalf("clone has %d prefixes, want 2", c.Len())
	}
}

func TestIsAbsoluteIRI(t *testing.T) {
	for in, want := range map[string]bool{
		"http://x":  true,
		"urn:abc":   true,
		"mailto:x":  true,
		"rel/path":  false,
		"#frag":     false,
		":nocolon":  false,
		"":          false,
		"ht tp://x": false,
	} {
		if got := isAbsoluteIRI(in); got != want {
			t.Errorf("isAbsoluteIRI(%q) = %v, want %v", in, got, want)
		}
	}
}
