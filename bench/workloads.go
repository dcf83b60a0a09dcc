package main

import (
	"math/rand"
)

// spec describes one workload. The reasons ("why") are repeated in
// BENCHMARK.json; a test keeps the two in step.
type spec struct {
	name string
	why  string
	// hot runs the mediator with the result cache and the view tier on.
	hot bool
	// tracedOps is the length of the fixed-count traced pass.
	tracedOps int
	// writeEvery makes every n-th operation of client 0 a KB write
	// (POST /api/alignments) instead of a query; 0 means read-only.
	writeEvery int
	// pool lists the workload's distinct queries. It does not depend on
	// the benchmark seed: the seed orders the asking, so that runs with
	// different seeds do the same work.
	pool func(o oracle) []query
	// draws returns one client's sequence of pool indexes.
	draws func(poolSize int, rng *rand.Rand) func() int
}

const hotPoolHalf = 32 // hot-churn draws from 32 Figure-1 and 32 cross-vocabulary queries

var specs = []spec{
	{
		name:      "fig1-coauthors",
		why:       "Paper's Figure-1 query over all 400 persons: cycles past the 256-entry rewrite-plan cache, ~19 rows, so parse, rewrite and source selection dominate.",
		tracedOps: universePersons,
		pool:      func(o oracle) []query { return perPerson(o.figure1) },
		draws:     walkPermutation,
	},
	{
		name:      "xvocab-join",
		why:       "Cross-vocabulary query no single data set covers: decompose, bound joins and ~5 serial endpoint round trips dominate.",
		tracedOps: universePersons,
		pool:      func(o oracle) []query { return perPerson(o.crossVocabulary) },
		draws:     walkPermutation,
	},
	{
		name:      "bulk-stream",
		why:       "One fixed query returning ~4k merged rows: planning is cached away, so SRJ decode, sameAs merge and SRJ encode dominate.",
		tracedOps: 50,
		pool:      func(o oracle) []query { return []query{o.bulk()} },
		draws: func(int, *rand.Rand) func() int {
			return func() int { return 0 }
		},
	},
	{
		name:       "hot-churn",
		why:        "Zipf draws from 64 queries with result cache and views on, plus invalidating alignment writes: the cache layers used, not bypassed.",
		hot:        true,
		tracedOps:  4000,
		writeEvery: 2000,
		pool: func(o oracle) []query {
			rng := rand.New(rand.NewSource(universeSeed))
			persons := rng.Perm(universePersons)
			pool := make([]query, 0, 2*hotPoolHalf)
			for _, i := range persons[:hotPoolHalf] {
				pool = append(pool, o.figure1(i))
			}
			for _, i := range persons[hotPoolHalf : 2*hotPoolHalf] {
				pool = append(pool, o.crossVocabulary(i))
			}
			// Zipf rank follows pool order: mix the two kinds.
			rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
			return pool
		},
		draws: func(n int, rng *rand.Rand) func() int {
			z := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
			return func() int { return int(z.Uint64()) }
		},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func perPerson(mk func(i int) query) []query {
	pool := make([]query, universePersons)
	for i := range pool {
		pool[i] = mk(i)
	}
	return pool
}

// walkPermutation visits every pool entry once per cycle, in the client's
// own seeded order.
func walkPermutation(n int, rng *rand.Rand) func() int {
	perm := rng.Perm(n)
	at := 0
	return func() int {
		i := perm[at%n]
		at++
		return i
	}
}

// clientRNG gives each closed-loop client its own stream for a seed.
func clientRNG(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000 + int64(client) + 1))
}
