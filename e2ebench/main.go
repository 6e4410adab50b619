// Command e2ebench is the end-to-end benchmark of the talk-back loop. It runs
// one named workload against the library entry point the talkbackd handlers
// call (core.System), in-process and from a single closed-loop client, checks
// every answer against its own reference model, and prints one JSON line of
// results. See README.md for the workloads and metrics.
//
//	e2ebench --workload verify-adhoc --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "verify-adhoc, analyst-scan or ingest-validate")
	seed := flag.Int64("seed", 1, "seed of the generated rows and questions")
	seconds := flag.Int("seconds", 10, "length of the timed loop")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: usage: --workload {verify-adhoc|analyst-scan|ingest-validate} --seed N --seconds N --trace {0|1}\n")
		os.Exit(2)
	}
	r := &run{
		w: w, seed: *seed, traced: *trace == 1,
		loop:    time.Duration(*seconds) * time.Second,
		correct: true,
		out:     map[string]metric{},
		byClass: map[string]samples{},
	}
	if err := r.execute(); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: r.out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workloadSpec names a workload, the size of its database, and its loop.
type workloadSpec struct {
	name  string
	scale scale
	// setups is how many times a run builds its cluster; setup_s is the
	// median.
	setups int
	// prepare, when set, builds the per-cluster state the loop needs and is
	// timed as part of set-up.
	prepare func(r *run) error
	// round runs one whole round of the timed loop.
	round func(r *run)
	// epilogue, when set, runs after the timed loop; its operations are not
	// counted in attempted.
	epilogue func(r *run)
}

var workloads = map[string]*workloadSpec{
	"verify-adhoc": {
		name:     "verify-adhoc",
		scale:    scale{movies: 600, actors: 300, directors: 60, castPer: 4, maxGenres: 3},
		setups:   7,
		prepare:  prepareVerify,
		round:    verifyRound,
		epilogue: writeEpilogue,
	},
	"analyst-scan": {
		name:     "analyst-scan",
		scale:    scale{movies: 32000, actors: 8000, directors: 800, castPer: 3, maxGenres: 3},
		setups:   3,
		prepare:  prepareAnalyst,
		round:    analystRound,
		epilogue: writeEpilogue,
	},
	"ingest-validate": {
		name:   "ingest-validate",
		scale:  scale{movies: 4000, actors: 1500, directors: 200, castPer: 3, maxGenres: 3},
		setups: 7,
		round:  ingestRound,
	},
}

// samples collects latencies of one kind of operation.
type samples []time.Duration

func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c[int(q*float64(len(c)-1)+0.5)]
}

func (s samples) sum() (t time.Duration) {
	for _, d := range s {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// run is one invocation: set-up, timed loop, epilogue, checks and clean exit.
type run struct {
	w      *workloadSpec
	seed   int64
	traced bool
	loop   time.Duration

	m   *model
	c   *cluster
	rng *rand.Rand // drives write parameters; seeded from --seed
	tr  *tracer    // nil outside the traced half of a traced run
	led *ledger

	// Workload state built by prepare.
	templates []*template
	next      []int // per-template draw counter
	hot       []hotQuestion
	hotNext   int
	lastHit   string // SQL of the last response-cache hit, for cache.hit_allocs
	probe     question

	// Traced runs: Systems with caches off over the primary's and the
	// follower's databases, for the ledger.
	ledgerSys, ledgerFSys *core.System

	// Operations of the timed loop count in attempted; a failure anywhere
	// else (epilogue, clean exit) counts as one more attempted and failed.
	inLoop            bool
	attempted, failed int
	correct           bool
	problems          []string

	ask, hit, verifyOnly     samples // timed-loop questions; cache hits
	write, visible, describe samples
	checkpointWrites         samples // writes that carried an auto-checkpoint
	asks                     int
	askBusy                  time.Duration
	writes                   int
	writeBusy                time.Duration // write + visibility + validation
	// Per-round throughputs; ask_qps and ingest_qps are their medians, so a
	// stall in one round moves them no more than it moves a percentile.
	askRates, writeRates   []float64
	dmlBusy                time.Duration // write time outside the log's Write and Sync
	empty, large, answered int
	byClass                map[string]samples
	recoverTime            time.Duration

	split *split // traced runs: the untraced and traced halves
	out   map[string]metric
}

// problem records a wrong output: the run is incorrect.
func (r *run) problem(err error) {
	r.correct = false
	if len(r.problems) < 5 {
		r.problems = append(r.problems, err.Error())
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
	}
}

// failure records a failed operation.
func (r *run) failure(err error) {
	if !r.inLoop {
		r.attempted++
	}
	r.failed++
	if len(r.problems) < 5 {
		r.problems = append(r.problems, err.Error())
		fmt.Fprintf(os.Stderr, "e2ebench: failed: %v\n", err)
	}
}

func (r *run) emit(name, unit string, v float64) { r.out[name] = metric{Value: v, Unit: unit} }

func (r *run) execute() error {
	r.m = generate(r.seed, r.w.scale)
	r.rng = rand.New(rand.NewSource(r.seed ^ 0x5eed))
	baseGoroutines := runtime.NumGoroutine()

	// Set up several times: the median is the set-up time, and all but the
	// last cluster are torn down (and checked for leftovers) before the next.
	var times samples
	var loads []float64
	for i := 0; i < r.w.setups; i++ {
		runtime.GC()
		start := time.Now()
		c, err := startCluster(r.m)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.c = c
		if r.w.prepare != nil {
			if err := r.w.prepare(r); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
		}
		times = append(times, time.Since(start))
		loads = append(loads, us(c.loadTime)/float64(r.m.rows()))
		if i < r.w.setups-1 {
			c.close()
			if err := c.checkGone(baseGoroutines); err != nil {
				return fmt.Errorf("tearing down set-up %d: %w", i+1, err)
			}
			r.c = nil
			debug.FreeOSMemory()
		}
	}
	sort.Float64s(loads)

	start := r.counters()
	r.inLoop = true
	if r.traced {
		if err := r.tracedLoop(); err != nil {
			return err
		}
	} else {
		r.timedLoop(r.loop)
	}
	r.inLoop = false
	if r.w.epilogue != nil {
		runtime.GC() // every epilogue starts from the same heap state
		r.w.epilogue(r)
	}
	end := r.counters()
	rss := peakRSS()

	r.finalChecks()
	r.c.close()
	if err := r.c.checkGone(baseGoroutines); err != nil {
		r.failure(fmt.Errorf("clean exit: %w", err))
	}
	if r.tr != nil {
		if err := r.tr.write(".bench_build/trace/" + r.w.name + ".spans.jsonl"); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: writing spans: %v\n", err)
		}
	}
	r.report(times.quantile(0.5), rss, loads[len(loads)/2], start, end)
	return nil
}

// timedLoop runs whole rounds until d has passed.
func (r *run) timedLoop(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		asks, busy := r.asks, r.askBusy
		r.w.round(r)
		if n := r.asks - asks; n > 0 {
			r.askRates = append(r.askRates, float64(n)/(r.askBusy-busy).Seconds())
		}
	}
}

// peakRSS reads the process's peak resident set (VmHWM) in MB.
func peakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
