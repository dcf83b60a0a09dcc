// Package voidkb implements the voiD knowledge base of the paper's
// architecture (Figure 5): descriptions of the data sets the mediator can
// target — their SPARQL endpoints, URI spaces and vocabularies — loaded
// from and serialised to Turtle using the voiD vocabulary.
package voidkb

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"sparqlrw/internal/rdf"
	"sparqlrw/internal/store"
	"sparqlrw/internal/turtle"
)

// Dataset describes one data set, per its voiD profile.
type Dataset struct {
	// URI uniquely identifies the data set within the system (§3.4).
	URI string
	// Title is a human-readable label (dcterms:title).
	Title string
	// SPARQLEndpoint is the query endpoint URL (void:sparqlEndpoint).
	SPARQLEndpoint string
	// Replicas are alternate endpoint URLs serving the same data set
	// (map:replicaEndpoint, an extension like uriSpaceRegex). The
	// executor's hedged dispatch races the healthiest replica against
	// the primary when the primary runs past its observed p95.
	Replicas []string
	// URISpace is a regular expression matching the data set's instance
	// URIs. voiD's void:uriSpace is a plain prefix; we store the derived
	// pattern (prefix regex-escaped + `\S*`), which is exactly the form
	// the paper's sameas functional dependencies consume.
	URISpace string
	// Vocabularies are the ontology namespaces the data set uses
	// (void:vocabulary).
	Vocabularies []string

	// Triples is the data set's total triple count (void:triples;
	// 0 = unknown). Together with the partitions below it feeds the
	// decomposer's cardinality estimator.
	Triples int64
	// PropertyPartitions maps predicate IRIs to their triple counts
	// (void:propertyPartition / void:property / void:triples).
	PropertyPartitions map[string]int64
	// ClassPartitions maps class IRIs to their instance counts
	// (void:classPartition / void:class / void:entities).
	ClassPartitions map[string]int64

	// space caches the compiled URI space, because Matches sits on the
	// planner's and the owner lookup's hot paths. It is read without a
	// lock; a racing recompile stores an equal value.
	space atomic.Pointer[uriSpace]
}

// uriSpace is a compiled URISpace: the anchored regexp (nil on a bad
// pattern) and the literal prefix every match starts with. A space of the
// URISpaceFromPrefix form matches the prefix followed by no whitespace,
// which needs no regexp.
type uriSpace struct {
	src        string
	re         *regexp.Regexp
	prefix     string
	prefixOnly bool
}

// perlSpace is what RE2's \s matches, and so what \S excludes.
const perlSpace = "\t\n\f\r "

// URISpaceFromPrefix derives the regex pattern for a plain URI prefix.
func URISpaceFromPrefix(prefix string) string {
	return regexp.QuoteMeta(prefix) + `\S*`
}

// Matches reports whether uri belongs to the data set's URI space. An IRI
// that does not start with the pattern's literal prefix is rejected before
// the regexp runs. The compiled regexp is cached per URISpace value;
// mutating URISpace invalidates the cache on the next call.
func (d *Dataset) Matches(uri string) bool {
	if d.URISpace == "" {
		return false
	}
	sp := d.space.Load()
	if sp == nil || sp.src != d.URISpace {
		sp = &uriSpace{src: d.URISpace}
		if sp.re, _ = regexp.Compile("^(?:" + d.URISpace + ")$"); sp.re != nil {
			sp.prefix, _ = sp.re.LiteralPrefix()
			sp.prefixOnly = d.URISpace == URISpaceFromPrefix(sp.prefix)
		}
		d.space.Store(sp)
	}
	if sp.re == nil || !strings.HasPrefix(uri, sp.prefix) {
		return false
	}
	if sp.prefixOnly {
		return !strings.ContainsAny(uri[len(sp.prefix):], perlSpace)
	}
	return sp.re.MatchString(uri)
}

// UsesVocabulary reports whether the data set declares the namespace.
func (d *Dataset) UsesVocabulary(ns string) bool {
	for _, v := range d.Vocabularies {
		if v == ns {
			return true
		}
	}
	return false
}

// Vocabulary returns the data set's first declared vocabulary namespace,
// the target ontology alignments into the data set are selected by (""
// when it declares none).
func (d *Dataset) Vocabulary() string {
	if len(d.Vocabularies) == 0 {
		return ""
	}
	return d.Vocabularies[0]
}

// PropertyTriples returns the void:propertyPartition triple count for a
// predicate IRI (ok=false when the data set publishes no figure for it).
func (d *Dataset) PropertyTriples(pred string) (int64, bool) {
	n, ok := d.PropertyPartitions[pred]
	return n, ok
}

// ClassEntities returns the void:classPartition entity count for a class
// IRI (ok=false when the data set publishes no figure for it).
func (d *Dataset) ClassEntities(class string) (int64, bool) {
	n, ok := d.ClassPartitions[class]
	return n, ok
}

// Sources is one request's source set: the slice of the KB its query may
// read, by data set URI. The nil set is the whole KB.
type Sources map[string]bool

// Has reports whether the set holds the data set.
func (s Sources) Has(uri string) bool { return s == nil || s[uri] }

// KB is a registry of data set descriptions.
type KB struct {
	mu       sync.RWMutex
	datasets map[string]*Dataset
	// all is every data set sorted by URI, rebuilt by Add and handed out
	// by All without a copy.
	all       []*Dataset
	listeners map[int]func(datasetURI string)
	nextSub   int
}

// NewKB returns an empty voiD KB.
func NewKB() *KB { return &KB{datasets: map[string]*Dataset{}} }

// Subscribe registers fn to be called with the data set URI whenever a
// description is added or replaced. The federation layer uses this to
// invalidate cached rewrite plans when a voiD entry changes. The
// returned cancel function removes the subscription; callers that
// outlive the KB must call it or they stay reachable through it.
func (kb *KB) Subscribe(fn func(datasetURI string)) (cancel func()) {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	if kb.listeners == nil {
		kb.listeners = map[int]func(string){}
	}
	id := kb.nextSub
	kb.nextSub++
	kb.listeners[id] = fn
	return func() {
		kb.mu.Lock()
		defer kb.mu.Unlock()
		delete(kb.listeners, id)
	}
}

// Add validates and registers a data set description, notifying
// subscribers of the change.
func (kb *KB) Add(d *Dataset) error {
	if d.URI == "" {
		return fmt.Errorf("voidkb: data set without URI")
	}
	if d.SPARQLEndpoint == "" {
		return fmt.Errorf("voidkb: data set %s without SPARQL endpoint", d.URI)
	}
	kb.mu.Lock()
	kb.datasets[d.URI] = d
	all := make([]*Dataset, 0, len(kb.datasets))
	for _, d := range kb.datasets {
		all = append(all, d)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].URI < all[j].URI })
	kb.all = all
	listeners := make([]func(string), 0, len(kb.listeners))
	for _, fn := range kb.listeners {
		listeners = append(listeners, fn)
	}
	kb.mu.Unlock()
	// Callbacks run outside the lock so they may read the KB.
	for _, fn := range listeners {
		fn(d.URI)
	}
	return nil
}

// Get returns the data set registered under uri.
func (kb *KB) Get(uri string) (*Dataset, bool) {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	d, ok := kb.datasets[uri]
	return d, ok
}

// All returns every data set, sorted by URI: a snapshot that Add
// replaces and never modifies, shared by every caller, so it must be
// read only.
func (kb *KB) All() []*Dataset {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return kb.all
}

// Len returns the number of registered data sets.
func (kb *KB) Len() int {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return len(kb.datasets)
}

// DatasetFor returns the data set whose URI space contains uri.
func (kb *KB) DatasetFor(uri string) (*Dataset, bool) {
	for _, d := range kb.All() {
		if d.Matches(uri) {
			return d, true
		}
	}
	return nil, false
}

const dctermsTitle = rdf.DCTermsNS + "title"

// uriSpaceProp extends voiD with the regex-form URI space the alignment
// machinery consumes; plain void:uriSpace prefixes are also accepted on
// load.
const uriSpaceRegexProp = rdf.MapNS + "uriSpaceRegex"

// replicaEndpointProp extends voiD with replica endpoints for hedged
// dispatch; void:sparqlEndpoint stays the unambiguous primary.
const replicaEndpointProp = rdf.MapNS + "replicaEndpoint"

// Encode appends the voiD description of d to g.
func Encode(g *rdf.Graph, d *Dataset) {
	id := rdf.NewIRI(d.URI)
	g.AddTriple(id, rdf.NewIRI(rdf.RDFType), rdf.NewIRI(rdf.VoidDataset))
	if d.Title != "" {
		g.AddTriple(id, rdf.NewIRI(dctermsTitle), rdf.NewLiteral(d.Title))
	}
	g.AddTriple(id, rdf.NewIRI(rdf.VoidSPARQLEndpoint), rdf.NewIRI(d.SPARQLEndpoint))
	for _, r := range d.Replicas {
		g.AddTriple(id, rdf.NewIRI(replicaEndpointProp), rdf.NewIRI(r))
	}
	if d.URISpace != "" {
		g.AddTriple(id, rdf.NewIRI(uriSpaceRegexProp), rdf.NewLiteral(d.URISpace))
	}
	for _, v := range d.Vocabularies {
		g.AddTriple(id, rdf.NewIRI(rdf.VoidVocabulary), rdf.NewIRI(v))
	}
	if d.Triples > 0 {
		g.AddTriple(id, rdf.NewIRI(rdf.VoidTriples), intLiteral(d.Triples))
	}
	// Partition blank-node labels are seeded from the graph length so
	// encoding many data sets into one graph cannot collide.
	seed := len(*g)
	for i, pred := range sortedKeys(d.PropertyPartitions) {
		part := rdf.NewBlank(fmt.Sprintf("s%dpp%d", seed, i))
		g.AddTriple(id, rdf.NewIRI(rdf.VoidPropertyPartition), part)
		g.AddTriple(part, rdf.NewIRI(rdf.VoidProperty), rdf.NewIRI(pred))
		g.AddTriple(part, rdf.NewIRI(rdf.VoidTriples), intLiteral(d.PropertyPartitions[pred]))
	}
	for i, class := range sortedKeys(d.ClassPartitions) {
		part := rdf.NewBlank(fmt.Sprintf("s%dcp%d", seed, i))
		g.AddTriple(id, rdf.NewIRI(rdf.VoidClassPartition), part)
		g.AddTriple(part, rdf.NewIRI(rdf.VoidClass), rdf.NewIRI(class))
		g.AddTriple(part, rdf.NewIRI(rdf.VoidEntities), intLiteral(d.ClassPartitions[class]))
	}
}

func intLiteral(n int64) rdf.Term {
	return rdf.NewTypedLiteral(strconv.FormatInt(n, 10), rdf.XSDInteger)
}

// parseCount reads a non-negative count out of a (typed or plain) literal;
// malformed or negative values read as 0 ("unknown").
func parseCount(t rdf.Term) int64 {
	n, err := strconv.ParseInt(t.Value, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FormatTurtle serialises the whole KB as Turtle.
func (kb *KB) FormatTurtle() string {
	var g rdf.Graph
	for _, d := range kb.All() {
		Encode(&g, d)
	}
	pm := rdf.StandardPrefixes()
	return turtle.Format(g, pm)
}

// ParseTurtle loads data set descriptions from a Turtle document.
func ParseTurtle(src string) (*KB, error) {
	g, _, err := turtle.Parse(src)
	if err != nil {
		return nil, err
	}
	st := store.New()
	st.AddGraph(g)
	kb := NewKB()
	ids := st.Subjects(rdf.NewIRI(rdf.RDFType), rdf.NewIRI(rdf.VoidDataset))
	sort.Slice(ids, func(i, j int) bool { return ids[i].Compare(ids[j]) < 0 })
	for _, id := range ids {
		d := &Dataset{URI: id.Value}
		if t, ok := st.FirstObject(id, rdf.NewIRI(dctermsTitle)); ok {
			d.Title = t.Value
		}
		if t, ok := st.FirstObject(id, rdf.NewIRI(rdf.VoidSPARQLEndpoint)); ok {
			d.SPARQLEndpoint = t.Value
		}
		for _, r := range st.Objects(id, rdf.NewIRI(replicaEndpointProp)) {
			d.Replicas = append(d.Replicas, r.Value)
		}
		sort.Strings(d.Replicas)
		if t, ok := st.FirstObject(id, rdf.NewIRI(uriSpaceRegexProp)); ok {
			d.URISpace = t.Value
		} else if t, ok := st.FirstObject(id, rdf.NewIRI(rdf.VoidURISpace)); ok {
			d.URISpace = URISpaceFromPrefix(t.Value)
		}
		for _, v := range st.Objects(id, rdf.NewIRI(rdf.VoidVocabulary)) {
			d.Vocabularies = append(d.Vocabularies, v.Value)
		}
		sort.Strings(d.Vocabularies)
		if t, ok := st.FirstObject(id, rdf.NewIRI(rdf.VoidTriples)); ok {
			d.Triples = parseCount(t)
		}
		for _, part := range st.Objects(id, rdf.NewIRI(rdf.VoidPropertyPartition)) {
			pred, ok := st.FirstObject(part, rdf.NewIRI(rdf.VoidProperty))
			if !ok {
				continue
			}
			n, ok := st.FirstObject(part, rdf.NewIRI(rdf.VoidTriples))
			if !ok {
				continue
			}
			// A malformed count parses to 0 = "unknown" and is dropped:
			// recording it would make the estimator read the partition as
			// a known (near-empty) extent and seed joins with it.
			if c := parseCount(n); c > 0 {
				if d.PropertyPartitions == nil {
					d.PropertyPartitions = map[string]int64{}
				}
				d.PropertyPartitions[pred.Value] = c
			}
		}
		for _, part := range st.Objects(id, rdf.NewIRI(rdf.VoidClassPartition)) {
			class, ok := st.FirstObject(part, rdf.NewIRI(rdf.VoidClass))
			if !ok {
				continue
			}
			// void:entities is the canonical instance count; fall back to
			// void:triples, which some published descriptions use instead.
			n, ok := st.FirstObject(part, rdf.NewIRI(rdf.VoidEntities))
			if !ok {
				if n, ok = st.FirstObject(part, rdf.NewIRI(rdf.VoidTriples)); !ok {
					continue
				}
			}
			if c := parseCount(n); c > 0 {
				if d.ClassPartitions == nil {
					d.ClassPartitions = map[string]int64{}
				}
				d.ClassPartitions[class.Value] = c
			}
		}
		if err := kb.Add(d); err != nil {
			return nil, err
		}
	}
	return kb, nil
}
