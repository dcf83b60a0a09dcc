// Package workload generates the synthetic stand-ins for the paper's data
// sets (the published RKB explorer repositories are long gone): a
// Southampton-like publication set in the AKT ontology, a partially
// overlapping KISTI-like set with the CreatorInfo indirection and its own
// URI space, DBpedia/ECS-like sets for the 42-alignment KB, the owl:sameAs
// links between them, the alignment knowledge bases with the paper's
// reported cardinalities (24 AKT↔KISTI, 42 ECS↔DBpedia, §3.4), and the
// query workloads the experiments run. All generation is deterministic in
// the seed.
package workload

import (
	"fmt"
	"math/rand"

	"sparqlrw/internal/coref"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/store"
)

// URI spaces of the generated data sets, mirroring the paper's.
const (
	SotonIDSpace = "http://southampton.rkbexplorer.com/id/"
	KistiIDSpace = "http://kisti.rkbexplorer.com/id/"
	ECSIDSpace   = "http://rdf.ecs.soton.ac.uk/id/"
	DBPIDSpace   = "http://dbpedia.org/resource/"

	// KistiURIPattern is the regex form used in functional dependencies,
	// exactly as written in the paper's example.
	KistiURIPattern = `http://kisti\.rkbexplorer\.com/id/\S*`
	SotonURIPattern = `http://southampton\.rkbexplorer\.com/id/\S*`
	DBPURIPattern   = `http://dbpedia\.org/resource/\S*`
	ECSURIPattern   = `http://rdf\.ecs\.soton\.ac\.uk/id/\S*`
)

// voiD URIs of the generated data sets.
const (
	SotonVoidURI = "http://southampton.rkbexplorer.com/id/void"
	KistiVoidURI = "http://kisti.rkbexplorer.com/id/void"
	ECSVoidURI   = "http://rdf.ecs.soton.ac.uk/id/void"
	DBPVoidURI   = "http://dbpedia.org/void"
)

// Config sizes a universe.
type Config struct {
	// Persons is the number of researchers.
	Persons int
	// Papers is the number of Southampton papers.
	Papers int
	// MaxAuthors bounds authors per paper (uniform 1..MaxAuthors).
	MaxAuthors int
	// Overlap is the fraction of Southampton papers mirrored in KISTI.
	Overlap float64
	// KistiExtra is the fraction (of Papers) of additional KISTI-only
	// papers; these are what federated querying recovers (recall, E6).
	KistiExtra float64
	// Seed drives all pseudo-random choices.
	Seed int64
}

// DefaultConfig returns a small but representative universe.
func DefaultConfig() Config {
	return Config{Persons: 100, Papers: 300, MaxAuthors: 4, Overlap: 0.5, KistiExtra: 0.3, Seed: 42}
}

// Universe holds the generated data sets and their co-reference links.
type Universe struct {
	Cfg         Config
	Southampton *store.Store
	KISTI       *store.Store
	Coref       *coref.Store
	// Authorship of every paper, by paper key ("s<j>" for Southampton
	// papers, "k<j>" for KISTI-only ones) to person indices; used by
	// tests and the recall experiment to compute ground truth.
	Authors map[string][]int
	// MirroredPapers lists Southampton paper indices mirrored in KISTI.
	MirroredPapers []int
	// ExtraPapers is the number of KISTI-only papers.
	ExtraPapers int
}

// SotonPerson returns the Southampton URI of person i.
func SotonPerson(i int) rdf.Term {
	return rdf.NewIRI(fmt.Sprintf("%sperson-%05d", SotonIDSpace, i))
}

// SotonPaper returns the Southampton URI of paper j.
func SotonPaper(j int) rdf.Term {
	return rdf.NewIRI(fmt.Sprintf("%spaper-%05d", SotonIDSpace, j))
}

// KistiPerson returns the KISTI URI of person i (the PER_ shape of the
// paper's worked example).
func KistiPerson(i int) rdf.Term {
	return rdf.NewIRI(fmt.Sprintf("%sPER_%011d", KistiIDSpace, i))
}

// KistiPaper returns the KISTI URI of Southampton paper j.
func KistiPaper(j int) rdf.Term {
	return rdf.NewIRI(fmt.Sprintf("%sART_%011d", KistiIDSpace, j))
}

// KistiExtraPaper returns the URI of KISTI-only paper j.
func KistiExtraPaper(j int) rdf.Term {
	return rdf.NewIRI(fmt.Sprintf("%sART_X%010d", KistiIDSpace, j))
}

// Generate builds a universe from the configuration.
func Generate(cfg Config) *Universe {
	rng := rand.New(rand.NewSource(cfg.Seed))
	u := &Universe{
		Cfg:         cfg,
		Southampton: store.New(),
		KISTI:       store.New(),
		Coref:       coref.NewStore(),
		Authors:     map[string][]int{},
	}
	typ := rdf.NewIRI(rdf.RDFType)

	// Southampton persons (AKT vocabulary).
	for i := 0; i < cfg.Persons; i++ {
		p := SotonPerson(i)
		u.Southampton.Add(rdf.NewTriple(p, typ, rdf.NewIRI(rdf.AKTPerson)))
		u.Southampton.Add(rdf.NewTriple(p, rdf.NewIRI(rdf.AKTFullName), rdf.NewLiteral(fmt.Sprintf("Person %d", i))))
	}

	pickAuthors := func() []int {
		n := 1 + rng.Intn(cfg.MaxAuthors)
		seen := map[int]bool{}
		var out []int
		for len(out) < n {
			a := rng.Intn(cfg.Persons)
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
		return out
	}

	// Southampton papers.
	for j := 0; j < cfg.Papers; j++ {
		paper := SotonPaper(j)
		u.Southampton.Add(rdf.NewTriple(paper, typ, rdf.NewIRI(rdf.AKTArticleRef)))
		u.Southampton.Add(rdf.NewTriple(paper, rdf.NewIRI(rdf.AKTHasTitle), rdf.NewLiteral(fmt.Sprintf("Paper Title %d", j))))
		u.Southampton.Add(rdf.NewTriple(paper, rdf.NewIRI(rdf.AKTHasDate),
			rdf.NewTypedLiteral(fmt.Sprint(2000+j%10), rdf.XSDGYear)))
		authors := pickAuthors()
		u.Authors[fmt.Sprint("s", j)] = authors
		for _, a := range authors {
			u.Southampton.Add(rdf.NewTriple(paper, rdf.NewIRI(rdf.AKTHasAuthor), SotonPerson(a)))
		}
	}

	// KISTI mirrors: a deterministic subset of Southampton papers, with
	// the CreatorInfo indirection and the KISTI URI space.
	kistiPersons := map[int]bool{}
	addKistiPaper := func(paper rdf.Term, title string, year int, authors []int) {
		u.KISTI.Add(rdf.NewTriple(paper, typ, rdf.NewIRI(rdf.KISTIArticle)))
		u.KISTI.Add(rdf.NewTriple(paper, rdf.NewIRI(rdf.KISTITitle), rdf.NewLiteral(title)))
		u.KISTI.Add(rdf.NewTriple(paper, rdf.NewIRI(rdf.KISTIYear),
			rdf.NewTypedLiteral(fmt.Sprint(year), rdf.XSDGYear)))
		for k, a := range authors {
			ci := rdf.NewIRI(fmt.Sprintf("%s/creator-%d", paper.Value, k))
			u.KISTI.Add(rdf.NewTriple(paper, rdf.NewIRI(rdf.KISTIHasCreatorInfo), ci))
			u.KISTI.Add(rdf.NewTriple(ci, typ, rdf.NewIRI(rdf.KISTICreatorInfo)))
			u.KISTI.Add(rdf.NewTriple(ci, rdf.NewIRI(rdf.KISTIHasCreator), KistiPerson(a)))
			kistiPersons[a] = true
		}
	}
	for j := 0; j < cfg.Papers; j++ {
		if float64(j%100) >= cfg.Overlap*100 {
			continue
		}
		u.MirroredPapers = append(u.MirroredPapers, j)
		paper := KistiPaper(j)
		addKistiPaper(paper, fmt.Sprintf("Paper Title %d", j), 2000+j%10, u.Authors[fmt.Sprint("s", j)])
		u.Coref.Add(SotonPaper(j).Value, paper.Value)
	}

	// KISTI-only papers: new publications by known authors — the recall
	// federated querying gains.
	u.ExtraPapers = int(float64(cfg.Papers) * cfg.KistiExtra)
	for j := 0; j < u.ExtraPapers; j++ {
		paper := KistiExtraPaper(j)
		authors := pickAuthors()
		u.Authors[fmt.Sprint("k", j)] = authors
		addKistiPaper(paper, fmt.Sprintf("KISTI Paper %d", j), 2005+j%5, authors)
	}

	// KISTI person descriptions + co-reference links for every person
	// KISTI mentions.
	for i := 0; i < cfg.Persons; i++ {
		if !kistiPersons[i] {
			continue
		}
		p := KistiPerson(i)
		u.KISTI.Add(rdf.NewTriple(p, typ, rdf.NewIRI(rdf.KISTIPerson)))
		u.KISTI.Add(rdf.NewTriple(p, rdf.NewIRI(rdf.KISTIName), rdf.NewLiteral(fmt.Sprintf("Person %d", i))))
		u.Coref.Add(SotonPerson(i).Value, p.Value)
	}
	return u
}

// CoAuthors returns the ground-truth distinct co-author indices of person
// i across both data sets (excluding i itself): the federated answer the
// recall experiment checks against.
func (u *Universe) CoAuthors(i int) map[int]bool {
	out := map[int]bool{}
	for _, authors := range u.Authors {
		mine := false
		for _, a := range authors {
			if a == i {
				mine = true
				break
			}
		}
		if !mine {
			continue
		}
		for _, a := range authors {
			if a != i {
				out[a] = true
			}
		}
	}
	return out
}

// CoAuthorsIn returns the co-authors of person i visible in only the
// Southampton set (key prefix "s") or only KISTI's holdings (mirrored
// papers + extras).
func (u *Universe) CoAuthorsIn(i int, dataset string) map[int]bool {
	mirrored := map[int]bool{}
	for _, j := range u.MirroredPapers {
		mirrored[j] = true
	}
	out := map[int]bool{}
	for key, authors := range u.Authors {
		var in bool
		switch dataset {
		case "southampton":
			in = key[0] == 's'
		case "kisti":
			if key[0] == 'k' {
				in = true
			} else {
				var j int
				fmt.Sscanf(key, "s%d", &j)
				in = mirrored[j]
			}
		}
		if !in {
			continue
		}
		mine := false
		for _, a := range authors {
			if a == i {
				mine = true
				break
			}
		}
		if !mine {
			continue
		}
		for _, a := range authors {
			if a != i {
				out[a] = true
			}
		}
	}
	return out
}

// Figure1Query returns the paper's Figure 1 co-author query for person i.
func Figure1Query(i int) string {
	return fmt.Sprintf(`PREFIX akt:<%s>
SELECT DISTINCT ?a WHERE {
  ?paper akt:has-author <%s> .
  ?paper akt:has-author ?a .
  FILTER (!(?a = <%s>))
}`, rdf.AKTNS, SotonPerson(i).Value, SotonPerson(i).Value)
}
