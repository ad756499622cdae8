package main

import (
	"fmt"
	"math/rand"
	"sort"

	"codb/internal/relation"
)

// keySpace bounds the generated data(k, v) keys. Keys are unique across
// the whole run, so every committed tuple is fresh; values are drawn from
// the set-up keys, so the serve query's self-join data(x,y), data(y,z)
// finds partners.
const keySpace = 1 << 30

// gen makes every input of a run from its seed: tuples, query constants
// and the open-loop schedule.
type gen struct {
	rng      *rand.Rand
	used     map[int64]bool
	baseKeys []int64
}

func newGen(seed int64) *gen {
	return &gen{rng: rand.New(rand.NewSource(seed)), used: make(map[int64]bool)}
}

func (g *gen) freshKey() int64 {
	for {
		k := g.rng.Int63n(keySpace)
		if !g.used[k] {
			g.used[k] = true
			return k
		}
	}
}

// setUpInputs returns the tuples committed at each peer during set-up:
// fillTuples at fillPeer, baseTuples everywhere else.
func (g *gen) setUpInputs(names []string) map[string][]relation.Tuple {
	sizes := make(map[string]int, len(names))
	keys := make(map[string][]int64, len(names))
	for _, n := range names {
		sizes[n] = baseTuples
		if n == fillPeer {
			sizes[n] = fillTuples
		}
		for i := 0; i < sizes[n]; i++ {
			k := g.freshKey()
			keys[n] = append(keys[n], k)
			g.baseKeys = append(g.baseKeys, k)
		}
	}
	out := make(map[string][]relation.Tuple, len(names))
	for _, n := range names {
		for _, k := range keys[n] {
			out[n] = append(out[n], relation.Tuple{relation.Int(int(k)), relation.Int(int(g.value()))})
		}
	}
	return out
}

// value draws a join partner: one of the set-up keys.
func (g *gen) value() int64 { return g.baseKeys[g.rng.Intn(len(g.baseKeys))] }

// burst returns n fresh tuples.
func (g *gen) burst(n int) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		out[i] = relation.Tuple{relation.Int(int(g.freshKey())), relation.Int(int(g.value()))}
	}
	return out
}

// constants is the fixed set serve queries draw their threshold from, in
// popularity order. The thresholds sit in the top window of the key space
// sized so that x >= c selects at most ~64 set-up keys: answers stay small
// and the cost is the evaluation, not the response.
func (g *gen) constants(totalBase int) []int64 {
	window := int64(64) * keySpace / int64(totalBase)
	cs := make([]int64, queryConsts)
	for i := range cs {
		cs[i] = keySpace - 1 - int64(i)*window/queryConsts
	}
	g.rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	return cs
}

// zipf is the Zipf(1) distribution over ranks 0..n-1: rank r has
// probability proportional to 1/(r+1).
type zipf struct{ cdf []float64 }

func newZipf(n int) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / float64(i+1)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

// rank returns the rank whose cumulative probability first reaches u.
func (z *zipf) rank(u float64) int {
	return min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)
}

// query is one serve request.
type query struct {
	node string
	net  bool
	c    int64
}

func (q query) text() string {
	if q.net {
		return fmt.Sprintf("ans(x, y) :- data(x, y), x >= %d", q.c)
	}
	return fmt.Sprintf("ans(x, z) :- data(x, y), data(y, z), x >= %d", q.c)
}

// querier plans serve queries. Local queries visit every peer in balanced
// cycles, once per cycle in a shuffled order, so every run has the same
// peer mix. Network queries all go to N5, whose query-time answer fetches
// from N8 over one TCP hop. Spread over the grid, their cost would fall
// into classes from one peer to nine and the percentiles would jump between
// classes from run to run. At a peer with a wider closure (N4: four peers,
// about 60 ms) a network query runs beside about one local query in eight,
// doubling its latency, so the local percentiles would sit on the edge of
// that slowed group and swing from run to run. Each peer's thresholds are a
// stratified Zipf sample: every rank appears as often as its probability
// says, in a shuffled order. The number of repeated queries, which are the
// query cache's chances to hit, is then the same in every run. The seed
// picks which threshold has which rank.
type querier struct {
	rng    *rand.Rand
	names  []string
	consts []int64
	z      *zipf
}

func (g *gen) querier(names []string) *querier {
	return &querier{
		rng:    rand.New(rand.NewSource(g.rng.Int63())),
		names:  names,
		consts: g.constants(len(g.baseKeys)),
		z:      newZipf(queryConsts),
	}
}

// peers returns the peers queries of one kind go to.
func (q *querier) peers(net bool) []string {
	if net {
		return []string{netPeer}
	}
	return q.names
}

// plan returns n queries of one kind.
func (q *querier) plan(n int, net bool) []query {
	peers := q.peers(net)
	cycles := (n + len(peers) - 1) / len(peers)
	ranks := make(map[string][]int, len(peers))
	for _, node := range peers {
		rs := make([]int, cycles)
		for i := range rs {
			rs[i] = q.z.rank((float64(i) + 0.5) / float64(cycles))
		}
		q.rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		ranks[node] = rs
	}
	out := make([]query, 0, n)
	order := append([]string(nil), peers...)
	for k := 0; len(out) < n; k++ {
		q.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, node := range order[:min(len(order), n-len(out))] {
			out = append(out, query{node: node, net: net, c: q.consts[ranks[node][k]]})
		}
	}
	return out
}
