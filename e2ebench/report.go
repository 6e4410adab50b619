package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/repl"
	"repro/internal/storage"
)

// counters is one reading of every cumulative counter a metric is a delta
// of.
type counters struct {
	fs     fsCounters
	dur    storage.DurabilityStats
	fol    repl.FollowerStatus
	mem    runtime.MemStats
	caches map[string]cache.Stats
	ops    int
}

// serving is the System the workload's questions go to.
func (r *run) serving() *core.System {
	if r.w.name == "ingest-validate" {
		return r.c.fsys
	}
	return r.c.sys
}

func (r *run) counters() counters {
	var k counters
	k.fs = r.c.fs.counters()
	k.dur, _ = r.c.db.DurabilityStats()
	k.fol = r.c.follower.Status()
	runtime.ReadMemStats(&k.mem)
	k.caches = r.serving().CacheStats()
	k.ops = r.attempted
	return k
}

// split holds what a traced run compares: the first half of its loop runs
// untraced (the runtime and cache counters come from it), the second half
// records spans and replays every cold question through the ledger.
type split struct {
	from, to               counters
	untracedP50, tracedP50 time.Duration
	hitAllocs              float64
}

func (r *run) tracedLoop() error {
	half := r.loop / 2
	from := r.counters()
	r.timedLoop(half)
	to := r.counters()
	n := len(r.ask)

	var err error
	if r.ledgerSys, err = ledgerSystem(r.c.db); err != nil {
		return err
	}
	if r.ledgerFSys, err = ledgerSystem(r.c.fdb); err != nil {
		return err
	}
	r.tr, r.led = newTracer(), newLedger()
	r.timedLoop(r.loop - half)
	r.split = &split{from: from, to: to, untracedP50: r.ask[:n].quantile(0.5), tracedP50: r.ask[n:].quantile(0.5)}
	r.split.hitAllocs = hitAllocs(r.serving(), r.lastHit)
	return nil
}

// ledgerSystem is a System with its caches off over db, so every ledger
// replay is the uncached path.
func ledgerSystem(db *storage.Database) (*core.System, error) {
	cfg := core.MovieConfig()
	cfg.DisableCache = true
	return core.New(db, cfg)
}

// hitAllocs counts the allocations of one response-cache hit of sql, which
// must be cached.
func hitAllocs(sys *core.System, sql string) float64 {
	const n = 200
	return allocsOf(func() {
		for i := 0; i < n; i++ {
			sys.Ask(sql)
		}
	}) / n
}

// recoverCrashImage recovers a fresh database from the bytes a power cut
// would have left behind.
func recoverCrashImage(fs *syncFS) (*storage.Database, time.Duration, error) {
	img, err := fs.crashImage()
	if err != nil {
		return nil, 0, err
	}
	db, err := storage.NewDatabase(dataset.MovieSchema())
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if _, err := db.EnableDurability(img, storage.DurableOptions{}); err != nil {
		return nil, 0, err
	}
	return db, time.Since(start), nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c[len(c)/2]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / time.Duration(len(s))
}

// report turns the run's samples and counter deltas into the metrics of the
// run's mode, after one line of reference figures.
func (r *run) report(setup time.Duration, rss, loadPerRow float64, start, end counters) {
	detail := map[string]any{
		"workload": r.w.name, "seed": r.seed, "rows": r.m.rows(),
		"setups_s": setup.Seconds(),
		"ask_n":    len(r.ask), "ask_p99_ms": ms(r.ask.quantile(0.99)),
		"hit_n": len(r.hit), "hit_p99_ms": ms(r.hit.quantile(0.99)),
		"verify_only_n": len(r.verifyOnly), "verify_only_p50_ms": ms(r.verifyOnly.quantile(0.5)),
		"write_n": len(r.write), "write_p99_ms": ms(r.write.quantile(0.99)),
		"visible_p99_ms": ms(r.visible.quantile(0.99)), "describe_p99_ms": ms(r.describe.quantile(0.99)),
		"answered": r.answered, "empty": r.empty, "large": r.large,
		"problems": r.problems,
	}
	classes := map[string][3]float64{}
	for c, s := range r.byClass {
		classes[c] = [3]float64{ms(s.quantile(0.1)), ms(s.quantile(0.5)), ms(s.quantile(0.9))}
	}
	detail["class_p10_p50_p90_ms"] = classes
	if line, err := json.Marshal(map[string]any{"detail": detail}); err == nil {
		fmt.Println(string(line))
	}

	if !r.traced {
		r.emit("setup_s", "s", setup.Seconds())
		r.emit("rss_mb", "MB", rss)
		r.emit("ask_p50_ms", "ms", ms(r.ask.quantile(0.5)))
		r.emit("ask_p90_ms", "ms", ms(r.ask.quantile(0.9)))
		r.emit("ask_qps", "1/s", median(r.askRates))
		r.emit("hit_p50_ms", "ms", ms(r.hit.quantile(0.5)))
		r.emit("write_p50_ms", "ms", ms(r.write.quantile(0.5)))
		r.emit("replica_visible_p50_ms", "ms", ms(r.visible.quantile(0.5)))
		r.emit("describe_p50_ms", "ms", ms(r.describe.quantile(0.5)))
		r.emit("ingest_qps", "1/s", median(r.writeRates))
		return
	}

	l, sp := r.led, r.split
	r.emit("sqlparser.parse_us", "us", l.stageMean("parse"))
	r.emit("sqlparser.parse_allocs", "count", l.parseAllocs.mean())
	r.emit("querygraph.build_us", "us", l.stageMean("graph"))
	r.emit("queryclassify.classify_us", "us", l.stageMean("classify"))
	r.emit("querytotext.translate_us", "us", l.stageMean("translate"))
	r.emit("querytotext.translate_allocs", "count", l.translateAllocs.mean())
	r.emit("cache.normalize_us", "us", l.stageMean("normalize"))
	r.emit("cache.hit_allocs", "count", sp.hitAllocs)
	for _, name := range []string{"parse", "graph", "translation", "response"} {
		a, b := sp.from.caches[name], sp.to.caches[name]
		hits, lookups := float64(b.Hits-a.Hits), float64(b.Hits+b.Misses-a.Hits-a.Misses)
		r.emit("cache."+name+"_hit_ratio", "ratio", ratio(hits, lookups))
		r.emit("cache."+name+"_lookups", "count", lookups)
	}
	r.emit("planner.plan_us", "us", l.stageMean("plan"))
	r.emit("engine.exec_us", "us", l.stageMean("execute"))
	r.emit("engine.rows_examined_per_row", "ratio", ratio(float64(l.examined), float64(l.returned)))
	r.emit("explain.feedback_us", "us", l.stageMean("feedback"))
	r.emit("explain.feedback_questions", "count", float64(l.feedback))
	r.emit("core.ledger_questions", "count", float64(l.questions))
	r.emit("core.ledger_executed", "count", float64(l.executed))
	r.emit("datatotext.narrate_us", "us", l.stageMean("narrate"))
	r.emit("datatotext.describe_us", "us", us(r.describe.mean()))
	r.emit("storage.load_us_per_row", "us", loadPerRow)
	r.emit("storage.versions_per_loaded_row", "ratio", ratio(float64(r.c.versions), float64(r.m.rows())))
	r.emit("storage.recover_ms", "ms", ms(r.recoverTime))

	commits := float64(end.dur.Batches - start.dur.Batches)
	r.emit("engine.dml_us", "us", us(r.dmlBusy)/float64(max(r.writes, 1)))
	r.emit("wal.bytes_per_commit", "B", ratio(float64(end.fs.bytes-start.fs.bytes), commits))
	r.emit("wal.writes_per_commit", "count", ratio(float64(end.fs.writes-start.fs.writes), commits))
	r.emit("wal.syncs_per_commit", "count", ratio(float64(end.fs.syncs-start.fs.syncs), commits))
	r.emit("wal.checkpoints", "count", float64(end.dur.Checkpoints-start.dur.Checkpoints))
	r.emit("wal.checkpoint_ms", "ms", ms(r.checkpointWrites.mean()))
	r.emit("repl.apply_us", "us", us(r.visible.mean()))
	r.emit("repl.records_applied", "count", float64(end.fol.Records-start.fol.Records))
	r.emit("repl.reconnects", "count", float64(end.fol.Reconnects))

	ops := float64(sp.to.ops - sp.from.ops)
	r.emit("runtime.alloc_bytes_per_op", "B", ratio(float64(sp.to.mem.TotalAlloc-sp.from.mem.TotalAlloc), ops))
	r.emit("runtime.gc_cycles", "count", float64(sp.to.mem.NumGC-sp.from.mem.NumGC))

	r.emit("core.ledger_ask_us", "us", l.askTotal.mean())
	r.emit("core.ledger_sum_us", "us", l.sum.mean())
	r.emit("core.ledger_gap_us", "us", l.gap.mean())
	r.emit("trace.overhead_pct", "%", 100*(ratio(float64(sp.tracedP50), float64(sp.untracedP50))-1))
	r.emit("trace.spans", "count", float64(len(r.tr.spans)+r.tr.dropped))
}
