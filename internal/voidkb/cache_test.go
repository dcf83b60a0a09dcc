package voidkb

import (
	"regexp"
	"testing"
)

func TestMatchesCachesCompiledPattern(t *testing.T) {
	d := &Dataset{URISpace: `http://a\.example/\S*`}
	if !d.Matches("http://a.example/x") || d.Matches("http://b.example/x") {
		t.Fatal("match semantics wrong")
	}
	first := d.space.Load()
	if first == nil || first.re == nil || first.prefix != "http://a.example/" {
		t.Fatalf("compiled URI space not cached: %+v", first)
	}
	d.Matches("http://a.example/y")
	if d.space.Load() != first {
		t.Fatal("regexp recompiled on second call")
	}
	// Mutating the URI space invalidates the cache.
	d.URISpace = `http://b\.example/\S*`
	if !d.Matches("http://b.example/x") || d.space.Load() == first {
		t.Fatal("cache not refreshed after URISpace change")
	}
	// A bad pattern matches nothing and does not recompile per call.
	d.URISpace = `http://(`
	if d.Matches("http://(") {
		t.Fatal("bad pattern must match nothing")
	}
}

func TestMatchesEmptySpace(t *testing.T) {
	d := &Dataset{}
	if d.Matches("http://a.example/x") {
		t.Fatal("empty URI space must match nothing")
	}
}

func BenchmarkMatches(b *testing.B) {
	d := &Dataset{URISpace: `http://southampton\.rkbexplorer\.com/id/\S*`}
	for _, c := range []struct {
		name, uri string
		want      bool
	}{
		{"match", "http://southampton.rkbexplorer.com/id/person-00042", true},
		{"foreign", "http://kisti.rkbexplorer.com/id/PER_00000000042", false},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if d.Matches(c.uri) != c.want {
					b.Fatalf("Matches(%s) != %v", c.uri, c.want)
				}
			}
		})
	}
}

// TestKBAllAllocs: All hands out the sorted snapshot Add built, with no
// copy and no sort per call.
func TestKBAllAllocs(t *testing.T) {
	kb := NewKB()
	for _, uri := range []string{"http://b/void", "http://a/void", "http://c/void"} {
		if err := kb.Add(&Dataset{URI: uri, SPARQLEndpoint: uri + "/sparql"}); err != nil {
			t.Fatal(err)
		}
	}
	if all := kb.All(); len(all) != 3 || all[0].URI != "http://a/void" || all[2].URI != "http://c/void" {
		t.Fatalf("All = %v, want the three data sets sorted by URI", all)
	}
	if n := testing.AllocsPerRun(100, func() { _ = kb.All() }); n != 0 {
		t.Fatalf("All allocates %.0f times per call, want 0", n)
	}
}

func TestKBSubscribe(t *testing.T) {
	kb := NewKB()
	var notified []string
	cancel := kb.Subscribe(func(uri string) { notified = append(notified, uri) })
	if err := kb.Add(&Dataset{URI: "http://a/void", SPARQLEndpoint: "http://a/sparql"}); err != nil {
		t.Fatal(err)
	}
	// Replacing an entry notifies again.
	if err := kb.Add(&Dataset{URI: "http://a/void", SPARQLEndpoint: "http://a2/sparql"}); err != nil {
		t.Fatal(err)
	}
	if len(notified) != 2 || notified[0] != "http://a/void" {
		t.Fatalf("notifications = %v", notified)
	}
	// Invalid adds do not notify.
	_ = kb.Add(&Dataset{URI: "http://b/void"})
	if len(notified) != 2 {
		t.Fatalf("invalid add notified: %v", notified)
	}
	// A cancelled subscription stops receiving.
	cancel()
	if err := kb.Add(&Dataset{URI: "http://c/void", SPARQLEndpoint: "http://c/sparql"}); err != nil {
		t.Fatal(err)
	}
	if len(notified) != 2 {
		t.Fatalf("cancelled subscription notified: %v", notified)
	}
}

// TestMatchesAgreesWithRegexp holds Matches' shortcuts — the literal-prefix
// rejection and the prefix-plus-\S* form answered without the regexp — to
// the anchored regexp they stand in for.
func TestMatchesAgreesWithRegexp(t *testing.T) {
	uris := []string{
		"http://a.example/id/x", "http://a.example/id/", "http://a.example/id/x y",
		"http://a.example/id/x\ty", "http://a.example/other", "http://b.example/id/x",
		"http://a.example/id/PER_1", "http://a.example/id/é", "",
	}
	for _, space := range []string{
		URISpaceFromPrefix("http://a.example/id/"),
		`http://a\.example/id/PER_\d+`,
		`http://(a|b)\.example/id/\S*`,
		`\S*`,
	} {
		d := &Dataset{URISpace: space}
		re := regexp.MustCompile("^(?:" + space + ")$")
		for _, uri := range uris {
			if got, want := d.Matches(uri), re.MatchString(uri); got != want {
				t.Errorf("%s: Matches(%q) = %v, the regexp says %v", space, uri, got, want)
			}
		}
	}
}
