package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/mediate"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/srjson"
	"sparqlrw/internal/workload"
)

// Sizes of the isolated measurements: how many distinct queries and
// captured endpoint bodies they run over, and how long each layer is
// exercised for.
const (
	layerQueries  = 64
	layerBodies   = 64
	layerMinTime  = 150 * time.Millisecond
	layerMinRound = 3
)

// cost is one layer's isolated price per unit of work (a call, or a row).
type cost struct {
	us     float64
	allocs float64
}

// measure calls round, which does some units of the layer's work on the
// calling goroutine and returns how many, until layerMinTime has passed,
// and returns time and allocations per unit.
func measure(round func() (units int, err error)) (cost, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	units := 0
	for rounds := 0; rounds < layerMinRound || time.Since(start) < layerMinTime; rounds++ {
		n, err := round()
		if err != nil {
			return cost{}, err
		}
		units += n
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	if units == 0 {
		return cost{}, nil
	}
	return cost{
		us:     float64(elapsed.Nanoseconds()) / 1e3 / float64(units),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(units),
	}, nil
}

// layerPolicy is the one URI-space + denied-predicate policy
// serve.Restrict is measured with. The workloads themselves run as the
// anonymous tenant, which has no policy.
var layerPolicy = &serve.Policy{
	URISpaces:        []string{workload.SotonIDSpace},
	DeniedPredicates: []string{rdf.AKTHasDate},
}

// layerCosts is every isolated measurement of one workload.
type layerCosts struct {
	parse, restrict, rewrite, planSelect, decompose cost // per call
	decode, canon, encode                           cost // per row
	query                                           cost // per Mediator.Query, us
}

// isolatedLayers times each pipeline layer alone, from outside, through
// its public function: one goroutine, the workload's own query texts and
// the endpoint response bodies the traced pass captured.
func isolatedLayers(m *mediate.Mediator, texts []string, bodies [][]byte) (layerCosts, error) {
	var lc layerCosts
	var err error
	fail := func(layer string, err error) (layerCosts, error) {
		return lc, fmt.Errorf("isolated %s: %w", layer, err)
	}

	parsed := make([]*sparql.Query, len(texts))
	if lc.parse, err = measure(func() (int, error) {
		for i, t := range texts {
			q, err := sparql.Parse(t)
			if err != nil {
				return 0, err
			}
			parsed[i] = q
		}
		return len(texts), nil
	}); err != nil {
		return fail("sparql.Parse", err)
	}
	if lc.restrict, err = measure(func() (int, error) {
		for _, q := range parsed {
			if _, _, err := serve.Restrict(q, layerPolicy); err != nil {
				return 0, err
			}
		}
		return len(parsed), nil
	}); err != nil {
		return fail("serve.Restrict", err)
	}
	if lc.rewrite, err = measure(func() (int, error) {
		for _, t := range texts {
			if _, err := m.Rewrite(t, rdf.AKTNS, workload.KistiVoidURI); err != nil {
				return 0, err
			}
		}
		return len(texts), nil
	}); err != nil {
		return fail("Mediator.Rewrite", err)
	}
	if lc.planSelect, err = measure(func() (int, error) {
		for _, t := range texts {
			if _, err := m.PlanQuery(t, rdf.AKTNS); err != nil {
				return 0, err
			}
		}
		return len(texts), nil
	}); err != nil {
		return fail("Mediator.PlanQuery", err)
	}
	if lc.decompose, err = measure(func() (int, error) {
		for _, t := range texts {
			if _, err := m.Decomposer.Decompose(t, rdf.AKTNS); err != nil {
				return 0, err
			}
		}
		return len(texts), nil
	}); err != nil {
		return fail("Decomposer.Decompose", err)
	}

	// The row layers run over the captured endpoint bodies.
	type decoded struct {
		vars []string
		rows []eval.Solution
	}
	docs := make([]decoded, len(bodies))
	if lc.decode, err = measure(func() (int, error) {
		rows := 0
		for i, b := range bodies {
			dec, err := srjson.NewStreamDecoder(bytes.NewReader(b))
			if err != nil {
				return 0, err
			}
			docs[i].rows = docs[i].rows[:0]
			for {
				sol, err := dec.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return 0, err
				}
				docs[i].rows = append(docs[i].rows, sol)
			}
			docs[i].vars = dec.Vars()
			rows += len(docs[i].rows)
		}
		return rows, nil
	}); err != nil {
		return fail("srjson.NewStreamDecoder", err)
	}
	if lc.canon, err = measure(func() (int, error) {
		rows := 0
		for _, d := range docs {
			reps := federate.NewRepCache(m.Coref) // one cache per merge run, as in federate
			for _, sol := range d.rows {
				for _, t := range sol {
					sinkTerm = reps.Term(t)
				}
			}
			rows += len(d.rows)
		}
		return rows, nil
	}); err != nil {
		return fail("RepCache.Term", err)
	}
	if lc.encode, err = measure(func() (int, error) {
		rows := 0
		for _, d := range docs {
			seq := func(yield func(eval.Solution, error) bool) {
				for _, sol := range d.rows {
					if !yield(sol, nil) {
						return
					}
				}
			}
			if err := srjson.EncodeSelectStream(io.Discard, d.vars, seq, nil); err != nil {
				return 0, err
			}
			rows += len(d.rows)
		}
		return rows, nil
	}); err != nil {
		return fail("srjson.EncodeSelectStream", err)
	}

	if lc.query, err = measure(func() (int, error) {
		for _, t := range texts {
			res, err := m.Query(context.Background(), mediate.QueryRequest{Query: t})
			if err != nil {
				return 0, err
			}
			_, err = res.Bindings().Collect()
			_ = res.Close()
			if err != nil {
				return 0, err
			}
		}
		return len(texts), nil
	}); err != nil {
		return fail("Mediator.Query", err)
	}
	return lc, nil
}

// sinkTerm keeps the compiler from discarding RepCache.Term calls.
var sinkTerm rdf.Term
