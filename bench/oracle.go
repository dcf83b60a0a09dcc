package main

import (
	"fmt"
	"slices"
	"strconv"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/workload"
)

// answer is what the oracle keeps per query: the row count and an
// order-independent hash of the rows, so the timed loop can check every
// response without holding or sorting result sets.
type answer struct {
	rows int
	hash uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime // terminator: "ab","c" differs from "a","bc"
}

// hashTerm folds one bound (or, as the zero Term, unbound) value into h.
func hashTerm(h uint64, t rdf.Term) uint64 {
	h = (h ^ uint64(t.Kind)) * fnvPrime
	h = fnvString(h, t.Value)
	h = fnvString(h, t.Datatype)
	return fnvString(h, t.Lang)
}

// add folds one row, given in the query's projection order, into the
// answer. Row hashes are summed, so the result is independent of row
// order and still counts duplicates.
func (a *answer) add(row ...rdf.Term) {
	h := uint64(fnvOffset)
	for _, t := range row {
		h = hashTerm(h, t)
	}
	a.rows++
	a.hash += h
}

// addSolution is add for a decoded solution mapping.
func (a *answer) addSolution(vars []string, sol eval.Solution) {
	h := uint64(fnvOffset)
	for _, v := range vars {
		h = hashTerm(h, sol[v])
	}
	a.rows++
	a.hash += h
}

// query is one generated request: the text the mediator receives, its
// projection and the ground-truth answer.
type query struct {
	text string
	vars []string
	want answer
	// limit, when positive, is sent as /sparql's limit parameter.
	limit int
}

// oracle derives ground truth from the generated universe alone — the
// authorship map, the deterministic citation counts and the owl:sameAs
// classes — never from a mediator answer.
type oracle struct {
	u *workload.Universe
}

// canon returns the representative the mediator's merge must render an
// IRI as: the lexicographically smallest member of its owl:sameAs class.
func (o oracle) canon(t rdf.Term) rdf.Term {
	rep := t.Value
	for _, eq := range o.u.Coref.Equivalents(t.Value) {
		if eq < rep {
			rep = eq
		}
	}
	return rdf.NewIRI(rep)
}

// figure1 is the paper's co-author query for person i: the distinct
// co-authors across Southampton and KISTI, merged through owl:sameAs.
func (o oracle) figure1(i int) query {
	q := query{text: workload.Figure1Query(i), vars: []string{"a"}}
	for a := range o.u.CoAuthors(i) {
		q.want.add(o.canon(workload.SotonPerson(a)))
	}
	return q
}

// crossVocabulary is person i's papers with every author and the paper's
// citation count. Only Southampton papers carry a count, so KISTI-only
// papers drop out of the join; mirrored papers merge into one row.
func (o oracle) crossVocabulary(i int) query {
	q := query{text: workload.CrossVocabularyQuery(i), vars: []string{"paper", "a", "c"}}
	for j := 0; j < o.u.Cfg.Papers; j++ {
		authors := o.u.Authors[fmt.Sprint("s", j)]
		if !slices.Contains(authors, i) {
			continue
		}
		paper := o.canon(workload.SotonPaper(j))
		count := rdf.NewTypedLiteral(strconv.Itoa(workload.CitationCount(j)), rdf.XSDInteger)
		for _, a := range authors {
			q.want.add(paper, o.canon(workload.SotonPerson(a)), count)
		}
	}
	return q
}

// bulkText is the bulk-stream workload's one query: every (paper, author,
// title) of Southampton and of rewritten KISTI.
const bulkText = "PREFIX akt:<" + rdf.AKTNS + ">\n" +
	"SELECT ?paper ?a ?t WHERE { ?paper akt:has-author ?a . ?paper akt:has-title ?t }"

func (o oracle) bulk() query {
	q := query{text: bulkText, vars: []string{"paper", "a", "t"}}
	for j := 0; j < o.u.Cfg.Papers; j++ {
		paper := o.canon(workload.SotonPaper(j))
		title := rdf.NewLiteral(fmt.Sprintf("Paper Title %d", j))
		for _, a := range o.u.Authors[fmt.Sprint("s", j)] {
			q.want.add(paper, o.canon(workload.SotonPerson(a)), title)
		}
	}
	for j := 0; j < o.u.ExtraPapers; j++ {
		paper := o.canon(workload.KistiExtraPaper(j))
		title := rdf.NewLiteral(fmt.Sprintf("KISTI Paper %d", j))
		for _, a := range o.u.Authors[fmt.Sprint("k", j)] {
			q.want.add(paper, o.canon(workload.SotonPerson(a)), title)
		}
	}
	return q
}
