package turtle

import (
	"sort"
	"strings"

	"sparqlrw/internal/rdf"
)

// Format serialises a graph as Turtle. Triples are grouped by subject with
// predicate (';') and object (',') lists; IRIs are shrunk to QNames using
// the supplied prefix map (pass nil for full IRIs everywhere). Output is
// deterministic: subjects, predicates and objects are sorted.
func Format(g rdf.Graph, prefixes *rdf.PrefixMap) string {
	var b strings.Builder
	if prefixes != nil {
		usedNS := usedNamespaces(g, prefixes)
		var iri [128]byte // most namespaces render without an allocation
		for _, p := range prefixes.Prefixes() {
			ns, _ := prefixes.Namespace(p)
			if usedNS[ns] {
				b.WriteString("@prefix " + p + ": ")
				b.Write(rdf.AppendIRI(iri[:0], ns))
				b.WriteString(" .\n")
			}
		}
		if b.Len() > 0 {
			b.WriteString("\n")
		}
	}

	// Group by subject, preserving a deterministic order.
	bySubject := map[rdf.Term]map[rdf.Term][]rdf.Term{}
	var subjects []rdf.Term
	for _, t := range g {
		po, ok := bySubject[t.S]
		if !ok {
			po = map[rdf.Term][]rdf.Term{}
			bySubject[t.S] = po
			subjects = append(subjects, t.S)
		}
		po[t.P] = append(po[t.P], t.O)
	}
	sort.Slice(subjects, func(i, j int) bool { return subjects[i].Compare(subjects[j]) < 0 })

	for _, s := range subjects {
		b.WriteString(formatTerm(s, prefixes))
		po := bySubject[s]
		var preds []rdf.Term
		for p := range po {
			preds = append(preds, p)
		}
		sort.Slice(preds, func(i, j int) bool { return preds[i].Compare(preds[j]) < 0 })
		for pi, p := range preds {
			if pi == 0 {
				b.WriteString(" ")
			} else {
				b.WriteString(" ;\n\t")
			}
			b.WriteString(formatVerb(p, prefixes))
			objs := po[p]
			sort.Slice(objs, func(i, j int) bool { return objs[i].Compare(objs[j]) < 0 })
			for oi, o := range objs {
				if oi == 0 {
					b.WriteString(" ")
				} else {
					b.WriteString(" , ")
				}
				b.WriteString(formatTerm(o, prefixes))
			}
		}
		b.WriteString(" .\n")
	}
	return b.String()
}

func usedNamespaces(g rdf.Graph, prefixes *rdf.PrefixMap) map[string]bool {
	used := map[string]bool{}
	note := func(t rdf.Term) {
		switch t.Kind {
		case rdf.KindIRI:
			if q, ok := prefixes.Shrink(t.Value); ok {
				ns, _ := prefixes.Namespace(q[:strings.Index(q, ":")])
				used[ns] = true
			}
		case rdf.KindLiteral:
			if t.Datatype != "" && t.Datatype != rdf.XSDString {
				if q, ok := prefixes.Shrink(t.Datatype); ok {
					ns, _ := prefixes.Namespace(q[:strings.Index(q, ":")])
					used[ns] = true
				}
			}
		}
	}
	for _, t := range g {
		note(t.S)
		note(t.P)
		note(t.O)
	}
	return used
}

func formatVerb(p rdf.Term, prefixes *rdf.PrefixMap) string {
	if p.Kind == rdf.KindIRI && p.Value == rdf.RDFType {
		return "a"
	}
	return formatTerm(p, prefixes)
}

func formatTerm(t rdf.Term, prefixes *rdf.PrefixMap) string {
	if prefixes == nil {
		return t.String()
	}
	switch t.Kind {
	case rdf.KindIRI:
		if q, ok := prefixes.Shrink(t.Value); ok {
			return q
		}
		return t.String()
	case rdf.KindLiteral:
		if t.Lang == "" && t.Datatype != "" && t.Datatype != rdf.XSDString {
			if q, ok := prefixes.Shrink(t.Datatype); ok {
				base := rdf.NewLiteral(t.Value).String()
				return base + "^^" + q
			}
		}
		return t.String()
	default:
		return t.String()
	}
}
