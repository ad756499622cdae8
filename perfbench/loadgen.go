package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// slot is one scheduled request: its due offset from the schedule start.
type slot struct {
	due time.Duration
	q   query
}

// buildSchedule lays out the open-loop schedule for d: local and network
// queries at their rates, in whole peer cycles (at least one), as one
// evenly spaced stream in which the network queries are spread as evenly
// as the counts allow. Each network query then falls between two local
// ones instead of drifting into and out of step with them. The schedule is
// fixed in advance, so a slow response never delays or drops a later
// request.
func buildSchedule(qr *querier, d time.Duration, localRate, netRate float64) []slot {
	count := func(rate float64, net bool) int {
		n, cycle := int(rate*d.Seconds()), len(qr.peers(net))
		return max(cycle, n-n%cycle)
	}
	local := qr.plan(count(localRate, false), false)
	net := qr.plan(count(netRate, true), true)
	n := len(local) + len(net)
	out := make([]slot, 0, n)
	for i := 0; i < n; i++ {
		s := slot{due: time.Duration((float64(i) + 0.5) * float64(d) / float64(n))}
		// Slot i holds a network query when the running share of network
		// queries, len(net)/n, crosses a whole number at it.
		if k := (i + 1) * len(net) / n; k > i*len(net)/n {
			s.q = net[k-1]
		} else {
			s.q = local[i-(i+1)*len(net)/n]
		}
		out = append(out, s)
	}
	return out
}

// sample is one completed request. Latency runs from the due time, not the
// send time, so generator lag is part of what the client sees.
type sample struct {
	net      bool
	lat, lag time.Duration
	err      error
}

// loadStats summarises one open-loop run.
type loadStats struct {
	samples []sample
	// maxBacklog is the most requests ever past due and not yet sent.
	maxBacklog int
}

// backlog counts the requests due at or before now that have not started:
// dues are sorted; started requests were taken in due order.
func backlog(dues []time.Duration, started int, now time.Duration) int {
	due := sort.Search(len(dues), func(i int) bool { return dues[i] > now })
	return max(due-started, 0)
}

// openLoop runs the schedule with workers goroutines. Each worker takes the
// next request in due order, sleeps until it is due (or sends at once if it
// is already late — a tick is never dropped), and records latency from the
// due time. send runs on the worker's goroutine with its worker index, so
// each worker can own one connection.
func openLoop(sched []slot, workers int, send func(w int, q query) error) loadStats {
	dues := make([]time.Duration, len(sched))
	for i, s := range sched {
		dues[i] = s.due
	}
	var (
		next    atomic.Int64
		mu      sync.Mutex
		started int
		st      loadStats
		wg      sync.WaitGroup
		start   = time.Now()
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				if wait := dues[i] - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				mu.Lock()
				started++
				st.maxBacklog = max(st.maxBacklog, backlog(dues, started, sent))
				mu.Unlock()
				err := send(w, sched[i].q)
				end := time.Since(start)
				mu.Lock()
				st.samples = append(st.samples, sample{net: sched[i].q.net, lat: end - dues[i], lag: sent - dues[i], err: err})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return st
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs; 0 for an empty slice.
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]time.Duration(nil), xs...)
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	return xs[min(max(rank, 1), len(xs))-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
