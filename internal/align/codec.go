package align

import (
	"fmt"
	"sort"
	"strconv"

	"sparqlrw/internal/rdf"
	"sparqlrw/internal/store"
	"sparqlrw/internal/turtle"
)

// The RDF concrete syntax for alignments follows §3.2.2 of the paper:
// entity alignments are resources typed map:EntityAlignment whose lhs/rhs
// parts are reified rdf:Statement nodes and whose functional dependencies
// are reified statements with an argument collection as rdf:object.
// Alignment variables are encoded as blank nodes (the paper's convention)
// and canonicalised to variables on load. One extension: RHS statements
// carry a map:index literal so that multi-triple bodies keep a
// deterministic order across round trips (RDF multisets are unordered).

const mapIndex = rdf.MapNS + "index"

// EncodeEntityAlignment appends the reified representation of ea to g.
// The alignment must have a non-empty ID. Blank node labels are derived
// from the (globally unique) alignment ID so that documents holding many
// alignments — and many ontology alignments — never share labels. The seq
// argument additionally disambiguates alignments that lack an ID.
func EncodeEntityAlignment(g *rdf.Graph, ea *EntityAlignment, seq int) {
	id := rdf.NewIRI(ea.ID)
	typ := rdf.NewIRI(rdf.RDFType)
	g.AddTriple(id, typ, rdf.NewIRI(rdf.MapEntityAlignment))

	base := sanitizeLabel(ea.ID)
	if base == "" {
		base = fmt.Sprintf("anon%d", seq)
	}
	bn := func(role string, i int) rdf.Term {
		return rdf.NewBlank(fmt.Sprintf("%s_%s%d", base, role, i))
	}
	// Variables are serialised as blank nodes named after the variable.
	varTerm := func(t rdf.Term) rdf.Term {
		if t.IsVar() {
			return rdf.NewBlank(t.Value)
		}
		return t
	}
	reify := func(node rdf.Term, t rdf.Triple) {
		g.AddTriple(node, typ, rdf.NewIRI(rdf.RDFStatement))
		g.AddTriple(node, rdf.NewIRI(rdf.RDFSubject), varTerm(t.S))
		g.AddTriple(node, rdf.NewIRI(rdf.RDFPredicate), varTerm(t.P))
		g.AddTriple(node, rdf.NewIRI(rdf.RDFObject), varTerm(t.O))
	}

	lhs := bn("lhs", 0)
	g.AddTriple(id, rdf.NewIRI(rdf.MapLHS), lhs)
	reify(lhs, ea.LHS)

	for i, t := range ea.RHS {
		node := bn("rhs", i)
		g.AddTriple(id, rdf.NewIRI(rdf.MapRHS), node)
		reify(node, t)
		g.AddTriple(node, rdf.NewIRI(mapIndex), rdf.NewInteger(int64(i)))
	}

	for i, fd := range ea.FDs {
		node := bn("fd", i)
		g.AddTriple(id, rdf.NewIRI(rdf.MapHasFD), node)
		g.AddTriple(node, typ, rdf.NewIRI(rdf.RDFStatement))
		g.AddTriple(node, rdf.NewIRI(rdf.RDFSubject), rdf.NewBlank(fd.Var))
		g.AddTriple(node, rdf.NewIRI(rdf.RDFPredicate), rdf.NewIRI(fd.Func))
		// Arguments as an RDF collection.
		if len(fd.Args) == 0 {
			g.AddTriple(node, rdf.NewIRI(rdf.RDFObject), rdf.NewIRI(rdf.RDFNil))
			continue
		}
		head := bn("fdargs", i)
		g.AddTriple(node, rdf.NewIRI(rdf.RDFObject), head)
		cur := head
		for ai, arg := range fd.Args {
			g.AddTriple(cur, rdf.NewIRI(rdf.RDFFirst), varTerm(arg))
			if ai == len(fd.Args)-1 {
				g.AddTriple(cur, rdf.NewIRI(rdf.RDFRest), rdf.NewIRI(rdf.RDFNil))
			} else {
				next := bn(fmt.Sprintf("fdargs%d_", i), ai+1)
				g.AddTriple(cur, rdf.NewIRI(rdf.RDFRest), next)
				cur = next
			}
		}
	}
}

// EncodeOntologyAlignment appends the OA header and all of its entity
// alignments to g.
func EncodeOntologyAlignment(g *rdf.Graph, oa *OntologyAlignment) {
	id := rdf.NewIRI(oa.URI)
	typ := rdf.NewIRI(rdf.RDFType)
	g.AddTriple(id, typ, rdf.NewIRI(rdf.MapOntologyAlignment))
	for _, so := range oa.SourceOntologies {
		g.AddTriple(id, rdf.NewIRI(rdf.MapSourceOntology), rdf.NewIRI(so))
	}
	for _, to := range oa.TargetOntologies {
		g.AddTriple(id, rdf.NewIRI(rdf.MapTargetOntology), rdf.NewIRI(to))
	}
	for _, td := range oa.TargetDatasets {
		g.AddTriple(id, rdf.NewIRI(rdf.MapTargetDataset), rdf.NewIRI(td))
	}
	for i, ea := range oa.Alignments {
		g.AddTriple(id, rdf.NewIRI(rdf.MapHasAlignment), rdf.NewIRI(ea.ID))
		EncodeEntityAlignment(g, ea, i)
	}
}

// FormatTurtle serialises ontology alignments as a Turtle document using
// the standard prefix set.
func FormatTurtle(oas []*OntologyAlignment) string {
	var g rdf.Graph
	for _, oa := range oas {
		EncodeOntologyAlignment(&g, oa)
	}
	return turtle.Format(g, rdf.StandardPrefixes())
}

// sanitizeLabel turns an alignment URI into a valid blank node label.
func sanitizeLabel(id string) string {
	var b []byte
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b = append(b, c)
		default:
			b = append(b, '_')
		}
	}
	return string(b)
}

// decoder wraps a store with reified-statement readers.
type decoder struct {
	st *store.Store
}

// blankToVar canonicalises alignment variables: blank nodes become
// variables of the same name, everything else passes through.
func blankToVar(t rdf.Term) rdf.Term {
	if t.IsBlank() {
		return rdf.NewVar(t.Value)
	}
	return t
}

func (d *decoder) object(s rdf.Term, p string) (rdf.Term, bool) {
	return d.st.FirstObject(s, rdf.NewIRI(p))
}

func (d *decoder) objects(s rdf.Term, p string) []rdf.Term {
	objs := d.st.Objects(s, rdf.NewIRI(p))
	sort.Slice(objs, func(i, j int) bool { return objs[i].Compare(objs[j]) < 0 })
	return objs
}

// statement reads a reified rdf:Statement node as a triple pattern.
func (d *decoder) statement(node rdf.Term) (rdf.Triple, error) {
	s, ok := d.object(node, rdf.RDFSubject)
	if !ok {
		return rdf.Triple{}, fmt.Errorf("align: statement %s lacks rdf:subject", node)
	}
	p, ok := d.object(node, rdf.RDFPredicate)
	if !ok {
		return rdf.Triple{}, fmt.Errorf("align: statement %s lacks rdf:predicate", node)
	}
	o, ok := d.object(node, rdf.RDFObject)
	if !ok {
		return rdf.Triple{}, fmt.Errorf("align: statement %s lacks rdf:object", node)
	}
	return rdf.Triple{S: blankToVar(s), P: blankToVar(p), O: blankToVar(o)}, nil
}

// list reads an RDF collection into a term slice.
func (d *decoder) list(head rdf.Term) ([]rdf.Term, error) {
	var out []rdf.Term
	for i := 0; ; i++ {
		if i > 10_000 {
			return nil, fmt.Errorf("align: argument list too long or cyclic")
		}
		if head.IsIRI() && head.Value == rdf.RDFNil {
			return out, nil
		}
		first, ok := d.object(head, rdf.RDFFirst)
		if !ok {
			return nil, fmt.Errorf("align: malformed collection at %s", head)
		}
		out = append(out, blankToVar(first))
		rest, ok := d.object(head, rdf.RDFRest)
		if !ok {
			return nil, fmt.Errorf("align: collection node %s lacks rdf:rest", head)
		}
		head = rest
	}
}

// decodeEA reads one entity alignment resource.
func (d *decoder) decodeEA(id rdf.Term) (*EntityAlignment, error) {
	ea := &EntityAlignment{ID: id.Value}
	lhsNode, ok := d.object(id, rdf.MapLHS)
	if !ok {
		return nil, fmt.Errorf("align: %s lacks map:lhs", id)
	}
	lhs, err := d.statement(lhsNode)
	if err != nil {
		return nil, err
	}
	ea.LHS = lhs

	rhsNodes := d.objects(id, rdf.MapRHS)
	if len(rhsNodes) == 0 {
		return nil, fmt.Errorf("align: %s lacks map:rhs", id)
	}
	type indexed struct {
		idx int
		t   rdf.Triple
	}
	var rhs []indexed
	for _, node := range rhsNodes {
		t, err := d.statement(node)
		if err != nil {
			return nil, err
		}
		idx := -1
		if it, ok := d.object(node, mapIndex); ok {
			if n, err := strconv.Atoi(it.Value); err == nil {
				idx = n
			}
		}
		rhs = append(rhs, indexed{idx: idx, t: t})
	}
	sort.SliceStable(rhs, func(i, j int) bool {
		if rhs[i].idx != rhs[j].idx {
			return rhs[i].idx < rhs[j].idx
		}
		return rhs[i].t.Compare(rhs[j].t) < 0
	})
	for _, r := range rhs {
		ea.RHS = append(ea.RHS, r.t)
	}

	for _, node := range d.objects(id, rdf.MapHasFD) {
		v, ok := d.object(node, rdf.RDFSubject)
		if !ok {
			return nil, fmt.Errorf("align: FD node %s lacks rdf:subject", node)
		}
		fn, ok := d.object(node, rdf.RDFPredicate)
		if !ok || !fn.IsIRI() {
			return nil, fmt.Errorf("align: FD node %s lacks a function IRI", node)
		}
		argsHead, ok := d.object(node, rdf.RDFObject)
		if !ok {
			return nil, fmt.Errorf("align: FD node %s lacks arguments", node)
		}
		args, err := d.list(argsHead)
		if err != nil {
			return nil, err
		}
		vt := blankToVar(v)
		if !vt.IsVar() {
			return nil, fmt.Errorf("align: FD dependent %s is not a variable", v)
		}
		ea.FDs = append(ea.FDs, FD{Var: vt.Value, Func: fn.Value, Args: args})
	}
	sort.SliceStable(ea.FDs, func(i, j int) bool { return ea.FDs[i].Var < ea.FDs[j].Var })
	return ea, ea.Validate()
}

// DecodeGraph extracts every ontology alignment (and any free-standing
// entity alignments not attached to an OA) from an RDF graph.
func DecodeGraph(g rdf.Graph) ([]*OntologyAlignment, []*EntityAlignment, error) {
	st := store.New()
	st.AddGraph(g)
	d := &decoder{st: st}

	typ := rdf.NewIRI(rdf.RDFType)
	var oas []*OntologyAlignment
	attached := map[string]bool{}
	oaIDs := st.Subjects(typ, rdf.NewIRI(rdf.MapOntologyAlignment))
	sort.Slice(oaIDs, func(i, j int) bool { return oaIDs[i].Compare(oaIDs[j]) < 0 })
	for _, id := range oaIDs {
		oa := &OntologyAlignment{}
		if id.IsIRI() { // a blank node's label names nothing outside its document
			oa.URI = id.Value
		}
		for _, t := range d.objects(id, rdf.MapSourceOntology) {
			oa.SourceOntologies = append(oa.SourceOntologies, t.Value)
		}
		for _, t := range d.objects(id, rdf.MapTargetOntology) {
			oa.TargetOntologies = append(oa.TargetOntologies, t.Value)
		}
		for _, t := range d.objects(id, rdf.MapTargetDataset) {
			oa.TargetDatasets = append(oa.TargetDatasets, t.Value)
		}
		for _, eaID := range d.objects(id, rdf.MapHasAlignment) {
			ea, err := d.decodeEA(eaID)
			if err != nil {
				return nil, nil, err
			}
			attached[ea.ID] = true
			oa.Alignments = append(oa.Alignments, ea)
		}
		if err := oa.Validate(); err != nil {
			return nil, nil, err
		}
		oas = append(oas, oa)
	}

	var free []*EntityAlignment
	eaIDs := st.Subjects(typ, rdf.NewIRI(rdf.MapEntityAlignment))
	sort.Slice(eaIDs, func(i, j int) bool { return eaIDs[i].Compare(eaIDs[j]) < 0 })
	for _, id := range eaIDs {
		if attached[id.Value] {
			continue
		}
		ea, err := d.decodeEA(id)
		if err != nil {
			return nil, nil, err
		}
		free = append(free, ea)
	}
	return oas, free, nil
}

// ParseTurtle parses a Turtle document containing alignment definitions.
func ParseTurtle(src string) ([]*OntologyAlignment, []*EntityAlignment, error) {
	g, _, err := turtle.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	return DecodeGraph(g)
}
