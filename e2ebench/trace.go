package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/explain"
	"repro/internal/planner"
	"repro/internal/queryclassify"
	"repro/internal/querygraph"
	"repro/internal/sqlparser"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one request share req; parent indexes the enclosing span
// (-1 for a root).
type span struct {
	name       string
	start, end int64 // ns since the tracer started
	parent     int
	req        int64
}

// maxSpans bounds the in-memory trace; later spans are counted, not kept.
const maxSpans = 1 << 16

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, so the untraced path pays one nil check per call.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int
	req     int64
	cur     int // innermost open span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

// request starts a new request id; spans begun until the next call share it.
func (t *tracer) request() {
	if t != nil {
		t.req++
	}
}

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.t0)), parent: t.cur, req: t.req})
	t.cur = len(t.spans) - 1
	return t.cur
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.t0))
	t.cur = t.spans[i].parent
}

// write dumps the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(map[string]any{"name": s.name, "start_ns": s.start, "end_ns": s.end, "parent": s.parent, "req": s.req}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledger accumulates the stage-by-stage replay of questions: each stage is
// called on its own, in the order AskContext runs them, against a System
// whose caches are off, next to an uncached Ask of the same question.
type ledger struct {
	stages map[string]*stat
	// questions replayed, those executed, and those that needed feedback.
	questions, executed, feedback int
	examined, returned            int64 // plan rows through every step, answer rows
	gap, askTotal, sum            stat
	parseAllocs, translateAllocs  stat
}

type stat struct {
	n   int
	sum float64
}

func (s *stat) add(v float64) { s.n++; s.sum += v }

func (s *stat) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

func newLedger() *ledger { return &ledger{stages: map[string]*stat{}} }

func (l *ledger) add(stage string, d time.Duration) {
	s := l.stages[stage]
	if s == nil {
		s = &stat{}
		l.stages[stage] = s
	}
	s.add(us(d))
}

func (l *ledger) stageMean(stage string) float64 {
	if s := l.stages[stage]; s != nil {
		return s.mean()
	}
	return 0
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// timed runs f inside a span and returns its duration.
func timed(t *tracer, name string, f func()) time.Duration {
	sp := t.begin(name)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(sp)
	return d
}

// allocsOf counts the heap allocations of one call of f.
func allocsOf(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// replay runs one question through the ledger on ls, a System with caches
// off over the same database the question was asked of. measureAllocs adds
// the (stop-the-world) allocation counts for parse and translate.
func (l *ledger) replay(t *tracer, ls *core.System, q question, measureAllocs bool) error {
	t.request()
	root := t.begin("ledger")
	defer t.end(root)

	var askErr error
	ask := timed(t, "core.ask_uncached", func() {
		if q.execute {
			_, askErr = ls.Ask(q.sql)
		} else {
			_, askErr = ls.DescribeQuery(q.sql)
		}
	})
	if askErr != nil {
		return askErr
	}

	var (
		stmt sqlparser.Statement
		g    *querygraph.Graph
		err  error
	)
	norm := timed(t, "cache.normalize", func() { cache.NormalizeSQL(q.sql) })
	parse := timed(t, "sqlparser.parse", func() { stmt, err = sqlparser.Parse(q.sql) })
	if err != nil {
		return err
	}
	sel, ok := stmt.(*sqlparser.SelectStmt)
	if !ok {
		return fmt.Errorf("ledger: %q is not a SELECT", q.sql)
	}
	// Translate builds the query graph and classifies it itself; the two are
	// timed again on their own afterwards, as warm as they ran inside it,
	// and subtracted to leave translate's self time.
	schema := ls.Database().Schema()
	translate := timed(t, "querytotext.translate", func() { _, err = ls.QueryTranslator().Translate(sel) })
	if err != nil {
		return err
	}
	build := timed(t, "querygraph.build", func() { g, err = querygraph.Build(sel, schema) })
	if err != nil {
		return err
	}
	classify := timed(t, "queryclassify.classify", func() { queryclassify.Classify(g) })
	l.questions++
	l.add("normalize", norm)
	l.add("parse", parse)
	l.add("graph", build)
	l.add("classify", classify)
	l.add("translate", translate-build-classify)
	sum := norm + parse + translate
	if measureAllocs {
		l.parseAllocs.add(allocsOf(func() { sqlparser.Parse(q.sql) }))
		total := allocsOf(func() { ls.QueryTranslator().Translate(sel) })
		inner := allocsOf(func() {
			if g, err := querygraph.Build(sel, schema); err == nil {
				queryclassify.Classify(g)
			}
		})
		l.translateAllocs.add(total - inner)
	}

	if q.execute {
		// SelectExplained plans before it executes; Plan is timed on its own
		// afterwards and subtracted the same way.
		eng := ls.Engine().At(ls.Database().Snapshot())
		var (
			res *engine.Result
			p   *planner.Plan
		)
		exec := timed(t, "engine.execute", func() { res, p, err = eng.SelectExplained(sel) })
		if err != nil {
			return err
		}
		plan := timed(t, "planner.plan", func() { _, err = eng.Plan(sel) })
		if err != nil {
			return err
		}
		narrate := timed(t, "datatotext.narrate", func() { ls.NarrateResult(res) })
		rows := len(res.Rows)
		for _, st := range p.Summarize().Steps {
			if st.ActualRows > 0 {
				l.examined += int64(st.ActualRows)
			}
		}
		l.executed++
		l.returned += int64(rows)
		l.add("plan", plan)
		l.add("execute", exec-plan)
		l.add("narrate", narrate)
		var fb time.Duration
		switch {
		case rows == 0:
			fb = timed(t, "explain.feedback", func() { explain.New(eng, ls.QueryTranslator()).ExplainEmpty(sel) })
		case rows > largeThreshold:
			fb = timed(t, "explain.feedback", func() { explain.New(eng, ls.QueryTranslator()).ExplainLarge(sel, largeThreshold) })
		}
		if fb > 0 {
			l.feedback++
			l.add("feedback", fb)
		}
		sum += exec + narrate + fb
	}
	l.askTotal.add(us(ask))
	l.sum.add(us(sum))
	l.gap.add(us(ask - sum))
	return nil
}
