package plan

import (
	"cmp"
	"fmt"

	"sparqlrw/internal/align"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/voidkb"
)

// PatternSource is one data set able to contribute answers to a single
// triple pattern: either natively (the pattern's vocabulary is declared
// by the data set) or through rewriting (an alignment reaches the data
// set from the pattern's vocabulary). The decomposer builds its cover and
// its exclusive groups from these.
type PatternSource struct {
	Dataset *voidkb.Dataset
	// NeedsRewrite says the pattern must be translated for this data set
	// before dispatch (its vocabulary differs from the data set's).
	NeedsRewrite bool
}

// PatternSources runs source selection for one triple pattern, against
// every registered data set in the source set src: the one relevance rule
// Select applies to each pattern of a query. A pattern is anchored by the
// vocabulary namespace of its bound predicate (or of its class, for
// rdf:type patterns); unanchored patterns (variable predicate, or an
// infrastructure namespace every endpoint knows) are answerable
// everywhere. Bound subject/object instance IRIs prune native data sets
// whose URI space holds no member of their owl:sameAs class (Owners).
func (p *Planner) PatternSources(tp rdf.Triple, src voidkb.Sources) []PatternSource {
	var out []PatternSource
	for _, ds := range p.datasets.All() {
		if !src.Has(ds.URI) {
			continue
		}
		if ps, m, _ := p.patternSource(ds, tp); m == (miss{}) {
			out = append(out, ps)
		}
	}
	return out
}

// miss says why a data set cannot answer a pattern or a query: it lies
// outside the request's source set, or the query uses a vocabulary it
// neither declares nor translates from the request's source ontology, or a
// ground IRI that lies in another data set's URI space with no alias in
// its own. The zero miss means it can.
type miss struct {
	outside         bool
	vocabulary      string
	translated      bool // vocabulary has alignments, not from the source ontology
	term, termOwner string
}

func (m miss) String() string {
	switch {
	case m.outside:
		return "outside the request's source set (dataset allowlist or named targets)"
	case m.translated:
		return fmt.Sprintf("translates vocabulary <%s> only through its own alignments, not from the request's source ontology", m.vocabulary)
	case m.vocabulary != "":
		return fmt.Sprintf("query uses vocabulary <%s> the data set neither declares nor translates", m.vocabulary)
	default:
		return fmt.Sprintf("bound term <%s> lies in %s's URI space, and no owl:sameAs alias of it in this one", m.term, m.termOwner)
	}
}

// patternSource decides whether one data set can answer a pattern, and
// says why not when it cannot, or how co-reference let it (reaches).
func (p *Planner) patternSource(ds *voidkb.Dataset, tp rdf.Triple) (PatternSource, miss, string) {
	src := PatternSource{Dataset: ds}
	if ns := PatternVocabulary(tp); ns != "" && !infrastructureNS[ns] && !ds.UsesVocabulary(ns) {
		// Only an alignment from the pattern's vocabulary can make this
		// data set answer it.
		eas := p.alignments.Select(align.Selector{
			SourceOntology: ns,
			TargetDataset:  ds.URI,
			TargetOntology: ds.Vocabulary(),
		})
		if len(eas) == 0 {
			return src, miss{vocabulary: ns}, ""
		}
		src.NeedsRewrite = true
	}
	m, coref := p.reaches(ds, src.NeedsRewrite, tp.S)
	if typed := tp.P.IsIRI() && tp.P.Value == rdf.RDFType; m == (miss{}) && !typed {
		var oc string
		m, oc = p.reaches(ds, src.NeedsRewrite, tp.O)
		coref = cmp.Or(coref, oc)
	}
	return src, m, coref
}

// reaches checks that a term can be answered at a data set: it is no
// instance IRI, or one inside the data set's URI space, translated through
// owl:sameAs when the data set rewrites, or in no registered space at all
// (benefit of the doubt). A native data set also reaches an IRI of another
// space through the member of its owl:sameAs class in its own, which its
// sub-query then carries (Owners.Respell): the reason saying so is the
// second result.
func (p *Planner) reaches(ds *voidkb.Dataset, rewrites bool, t rdf.Term) (miss, string) {
	if !t.IsIRI() || rewrites || ds.Matches(t.Value) {
		return miss{}, ""
	}
	other, ok := p.datasets.DatasetFor(t.Value)
	if !ok {
		return miss{}, ""
	}
	if sp, ok := p.owners.inSpace(ds, t.Value); ok {
		return miss{}, fmt.Sprintf("reaches <%s> through co-reference, as <%s>", t.Value, sp)
	}
	return miss{term: t.Value, termOwner: other.URI}, ""
}

// PatternVocabulary returns the vocabulary namespace anchoring a triple
// pattern: the namespace of the bound predicate, or of the class for
// rdf:type patterns with a bound object ("" when the pattern has no
// vocabulary anchor).
func PatternVocabulary(tp rdf.Triple) string {
	if !tp.P.IsIRI() {
		return ""
	}
	if tp.P.Value == rdf.RDFType {
		if tp.O.IsIRI() {
			return namespaceOf(tp.O.Value)
		}
		return ""
	}
	return namespaceOf(tp.P.Value)
}
