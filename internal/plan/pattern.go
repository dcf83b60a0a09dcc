package plan

import (
	"sparqlrw/internal/align"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/voidkb"
)

// PatternSource is one data set able to contribute answers to a single
// triple pattern: either natively (the pattern's vocabulary is declared
// by the data set) or through rewriting (an alignment reaches the data
// set from the pattern's vocabulary). The per-BGP decomposer builds its
// exclusive groups from these.
type PatternSource struct {
	Dataset *voidkb.Dataset
	// NeedsRewrite says the pattern must be translated for this data set
	// before dispatch (its vocabulary differs from the data set's).
	NeedsRewrite bool
}

// PatternSources runs source selection for one triple pattern, against
// every registered data set in the source set src: the per-pattern
// analogue of the whole-query relevance decision Plan takes. A pattern is
// anchored by the vocabulary namespace of its bound predicate (or of its
// class, for rdf:type patterns); unanchored patterns (variable predicate,
// or an infrastructure namespace every endpoint knows) are answerable
// everywhere. Bound subject/object instance IRIs prune native data sets
// whose URI space cannot contain them, exactly as Plan does.
func (p *Planner) PatternSources(tp rdf.Triple, src voidkb.Sources) []PatternSource {
	ns := PatternVocabulary(tp)
	var bound []string
	for _, t := range []rdf.Term{tp.S, tp.O} {
		if t.IsIRI() && !(tp.P.IsIRI() && tp.P.Value == rdf.RDFType && t == tp.O) {
			bound = append(bound, t.Value)
		}
	}
	var out []PatternSource
	for _, ds := range p.datasets.All() {
		if !src.Has(ds.URI) {
			continue
		}
		if ps, ok := p.patternSource(ds, ns, bound); ok {
			out = append(out, ps)
		}
	}
	return out
}

// patternSource decides whether one data set can answer a pattern with
// vocabulary namespace ns and the given bound instance IRIs.
func (p *Planner) patternSource(ds *voidkb.Dataset, ns string, bound []string) (PatternSource, bool) {
	src := PatternSource{Dataset: ds}
	anchored := ns != "" && !infrastructureNS[ns]
	if anchored && !ds.UsesVocabulary(ns) {
		// Only an alignment from the pattern's vocabulary can make this
		// data set answer it.
		eas := p.alignments.Select(align.Selector{
			SourceOntology: ns,
			TargetDataset:  ds.URI,
			TargetOntology: firstOrEmpty(ds.Vocabularies),
		})
		if len(eas) == 0 {
			return src, false
		}
		src.NeedsRewrite = true
	}
	for _, uri := range bound {
		if ds.Matches(uri) {
			continue
		}
		if src.NeedsRewrite {
			continue // translated through owl:sameAs at rewrite time
		}
		if other, ok := p.datasets.DatasetFor(uri); ok && other.URI != ds.URI {
			return src, false
		}
	}
	return src, true
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
