// Command perfbench is coDB's repeatable benchmark. It runs one named
// workload on the paper's 3×3 grid of durable TCP peers, checks the
// outputs against the chase oracle and direct evaluation, and prints one
// JSON result line:
//
//	perfbench --workload update-rounds --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	update-rounds  closed loop: every round commits a burst of fresh tuples
//	               at every peer, then runs one global update from N0
//	query-serve    open loop: local self-join and network queries over HTTP
//	               against a materialised, static grid
//
// Each workload also runs the other's driver, for half the seconds on a
// deployment of its own, so that every metric is reported on every
// workload.
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the workload's slice is replayed with spans recorded and the per-layer
// ladder is measured, and the result carries the per-layer metrics.
// See README.md in this directory for every metric's definition.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"codb/internal/storage"
)

const (
	gridPeers  = 9
	originPeer = "N0"
	// netPeer answers every network query (see querier).
	netPeer = "N5"
	// fillPeer is the grid corner every other peer imports from, directly
	// or transitively: committing fillTuples there before the first timed
	// round puts more than storage.DefaultChangelogLimit tuples into every
	// peer's changelog.
	fillPeer   = "N8"
	fillTuples = storage.DefaultChangelogLimit + 256
	// baseTuples are committed at every other peer during set-up.
	baseTuples = 256
	// burstTuples are the fresh tuples each peer commits per round.
	burstTuples = 50
	// setUps is how many times a run builds its deployment; setup_s is
	// the median and the last deployment is the one measured.
	setUps = 3
	// localQPS and netQPS are the open-loop rates of local self-join and
	// network queries. Network queries run at a quarter of the local rate,
	// not a tenth, so that a run has enough of them for steady percentiles.
	localQPS = 20
	netQPS   = 5
	// queryConsts is the size of the fixed constant set the serve queries
	// draw from (Zipf-skewed, so popular constants hit the query cache).
	queryConsts = 2000
	// checkLocal/checkNet are the sampled query answers compared against
	// direct evaluation on every measured deployment (whole peer cycles).
	checkLocal = 45
	checkNet   = 9
)

var workloads = []string{"update-rounds", "query-serve"}

type params struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
}

func main() {
	var p params
	var trace int
	flag.StringVar(&p.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&p.seed, "seed", 1, "input seed")
	flag.IntVar(&p.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run with the per-layer ladder")
	flag.StringVar(&p.root, "root", ".", "checkout root (work files go under ROOT/.bench_build)")
	flag.Parse()
	p.trace = trace == 1
	known := false
	for _, w := range workloads {
		known = known || w == p.workload
	}
	if !known || p.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n",
			strings.Join(workloads, ", "))
		os.Exit(2)
	}
	res, err := run(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: correctness check failed: %d of %d operations failed\n",
			res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one workload in a private work directory and returns its
// result.
func run(p params) (*result, error) {
	base := filepath.Join(p.root, ".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, p.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	printHeader(p)
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(p.seconds)*time.Second+150*time.Second)
	defer cancel()
	if p.trace {
		return traced(ctx, p, dir)
	}
	out, err := runWorkload(ctx, p, dir, nil, time.Duration(p.seconds)*time.Second)
	if err != nil {
		return nil, err
	}
	defer out.d.close()
	return out.endToEnd(), nil
}

// printHeader writes the run's context line: host, toolchain, source
// revision, seed and workload parameters.
func printHeader(p params) {
	h := map[string]any{
		"workload":   p.workload,
		"seed":       p.seed,
		"seconds":    p.seconds,
		"trace":      p.trace,
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     sourceRevision(p.root),
		"params": map[string]any{
			"peers": gridPeers, "fill_tuples": fillTuples, "base_tuples": baseTuples,
			"burst_tuples": burstTuples, "set_ups": setUps, "local_qps": localQPS,
			"net_qps": netQPS, "net_peer": netPeer, "query_consts": queryConsts, "loadgen_workers": runtime.NumCPU(),
			"sync_on_commit": true, "group_commit": true, "transport": "tcp-loopback",
			"secondary_phase_seconds": float64(p.seconds) / 2,
		},
	}
	b, _ := json.Marshal(h)
	fmt.Println("perfbench-header " + string(b))
}

// sourceRevision names the measured source: the git revision when the
// checkout is a repository, otherwise a digest of every Go source and
// module file under root.
func sourceRevision(root string) string {
	if b, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(b))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(root, ".git", r)); err == nil {
				return strings.TrimSpace(string(b))
			}
			return ref
		}
		return ref
	}
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
