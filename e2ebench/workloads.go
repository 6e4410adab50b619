package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/querytotext"
)

// hotQuestion is a question of verify-adhoc's hot set with the response its
// cold ask returned during set-up.
type hotQuestion struct {
	q    question
	resp *core.Response
}

// hotSize is verify-adhoc's hot set; the caches hold 512 entries.
const hotSize = 16

// askOp runs one question as one operation: Ask (or DescribeQuery for a
// verification-only question) on sys, then the checks. Latency lands in
// into; it returns nil when the operation failed.
func (r *run) askOp(sys *core.System, q question, into *samples) (*core.Response, time.Duration) {
	if r.inLoop {
		r.attempted++
	}
	r.tr.request()
	var (
		resp *core.Response
		tr   *querytotext.Translation
		err  error
		d    time.Duration
	)
	if q.execute {
		d = timed(r.tr, "core.ask", func() { resp, err = sys.Ask(q.sql) })
	} else {
		d = timed(r.tr, "core.describe_query", func() { tr, err = sys.DescribeQuery(q.sql) })
	}
	if err != nil {
		r.failure(fmt.Errorf("%s: %q: %w", q.class, q.sql, err))
		return nil, d
	}
	if q.execute {
		tr = resp.Verification
	}
	// A verification that does not name the question's constants fails the
	// operation: verifying the question is what the user asked for.
	if err := checkVerification(q, tr); err != nil {
		r.failure(err)
		return nil, d
	}
	if into != nil {
		*into = append(*into, d)
	}
	if !q.execute {
		return &core.Response{Verification: tr}, d
	}
	if r.inLoop && into == &r.ask {
		r.asks++
		r.askBusy += d
	}
	return resp, d
}

// hitOp re-asks a question that was just answered by cold and checks that the
// response cache served it unchanged.
func (r *run) hitOp(sys *core.System, q question, cold *core.Response) {
	before := sys.CacheStats()["response"].Hits
	hit, _ := r.askOp(sys, q, &r.hit)
	if hit == nil {
		return
	}
	if sys.CacheStats()["response"].Hits != before+1 {
		r.problem(fmt.Errorf("%s: re-asking %q missed the response cache", q.class, q.sql))
	}
	if err := sameResponse(cold, hit); err != nil {
		r.problem(fmt.Errorf("%s: %q: %w", q.class, q.sql, err))
	}
	r.lastHit = q.sql
}

// coldOp asks a question that misses every cache, checks the answer against
// the model and, in the traced half, replays it through the ledger.
func (r *run) coldOp(sys, ledgerSys *core.System, q question) *core.Response {
	into := &r.ask
	if !q.execute {
		into = &r.verifyOnly
	}
	resp, d := r.askOp(sys, q, into)
	if resp == nil {
		return nil
	}
	r.byClass[q.class] = append(r.byClass[q.class], d)
	if q.execute {
		if err := checkAnswer(q, r.m, resp); err != nil {
			r.problem(err)
		}
		r.answered++
		switch n := len(resp.Result.Rows); {
		case n == 0:
			r.empty++
		case n > largeThreshold:
			r.large++
		}
	}
	if r.led != nil {
		if err := r.led.replay(r.tr, ledgerSys, q, r.led.questions%8 == 0); err != nil {
			r.problem(fmt.Errorf("ledger: %s: %w", q.class, err))
		}
	}
	return resp
}

// ---------------------------------------------------------------------------
// verify-adhoc
// ---------------------------------------------------------------------------

func prepareVerify(r *run) error {
	if r.templates == nil {
		r.templates = verifyTemplates(rand.New(rand.NewSource(r.seed)), r.m)
		r.next = make([]int, len(r.templates))
		r.probe = constantProbe()
	}
	var execs []*template
	for _, t := range r.templates {
		if q := t.build(0); q.execute {
			execs = append(execs, t)
		}
	}
	r.hot = r.hot[:0]
	for j := 0; j < hotSize; j++ {
		q := execs[j%len(execs)].hotAt(j / len(execs))
		resp, err := r.c.sys.Ask(q.sql)
		if err != nil {
			return fmt.Errorf("warming %s: %w", q.class, err)
		}
		if err := checkAnswer(q, r.m, resp); err != nil {
			r.problem(err)
		}
		r.hot = append(r.hot, hotQuestion{q: q, resp: resp})
	}
	return nil
}

// verifyRound asks one cold question of every class, each followed by one
// re-ask from the hot set, then the fixed constant probe.
func verifyRound(r *run) {
	for i, t := range r.templates {
		q := t.at(r.next[i])
		r.next[i]++
		r.coldOp(r.c.sys, r.ledgerSys, q)
		h := r.hot[r.hotNext%len(r.hot)]
		r.hotNext++
		r.hitOp(r.c.sys, h.q, h.resp)
	}
	if resp, _ := r.askOp(r.c.sys, r.probe, nil); resp != nil {
		if err := checkAnswer(r.probe, r.m, resp); err != nil {
			r.problem(err)
		}
	}
}

// ---------------------------------------------------------------------------
// analyst-scan
// ---------------------------------------------------------------------------

func prepareAnalyst(r *run) error {
	if r.templates == nil {
		r.templates = analystTemplates(rand.New(rand.NewSource(r.seed)), r.m)
		r.next = make([]int, len(r.templates))
	}
	return nil
}

// analystRound asks one question of every scan template and a second one of
// the last (see analystTemplates), then re-asks the round's last question:
// the loop's only response-cache hit, kept out of the ask samples.
func analystRound(r *run) {
	var q question
	var resp *core.Response
	last := len(r.templates) - 1
	for i := 0; i <= last+1; i++ {
		t := min(i, last)
		q = r.templates[t].at(r.next[t])
		r.next[t]++
		resp = r.coldOp(r.c.sys, r.ledgerSys, q)
	}
	if resp != nil {
		r.hitOp(r.c.sys, q, resp)
	}
}

// ---------------------------------------------------------------------------
// ingest-validate
// ---------------------------------------------------------------------------

// ingestRound inserts a movie, updates it twice and deletes it: four
// acknowledged writes on the primary, each waited onto the follower and
// validated there. A round leaves the tables as it found them, so the cost
// of a write does not drift with the number of rounds a run completes. In
// ingest-validate's loop the round ends by re-asking its last follower
// question, the loop's only response-cache hit.
func ingestRound(r *run) {
	writes, busy := r.writes, r.writeBusy
	defer func() {
		if n := r.writes - writes; n > 0 {
			r.writeRates = append(r.writeRates, float64(n)/(r.writeBusy-busy).Seconds())
		}
	}()
	mv := r.insertMovie()
	if mv == nil {
		return
	}
	if !r.updateMovie(mv) || !r.updateMovie(mv) {
		return
	}
	q, resp := r.deleteMovie(mv)
	if resp != nil && r.inLoop {
		r.hitOp(r.c.fsys, q, resp)
	}
}

// writeEpilogue gives the read workloads the write path's numbers: ingest
// rounds for a quarter of the loop's length after the timed loop, so the
// loop itself never sees a write. Failed writes are counted where they
// happen.
func writeEpilogue(r *run) {
	for deadline := time.Now().Add(r.loop / 4); time.Now().Before(deadline); {
		ingestRound(r)
	}
}

func (r *run) insertMovie() *movie {
	id := r.m.nextMovieID
	mv := &movie{
		id:    id,
		title: fmt.Sprintf("Ingest %s %s %d", titleAdjectives[r.rng.Intn(len(titleAdjectives))], titleNouns[r.rng.Intn(len(titleNouns))], id),
		year:  int64(firstYear + r.rng.Intn(yearSpan)),
	}
	sql := fmt.Sprintf("insert into MOVIES values (%d, '%s', %d)", mv.id, mv.title, mv.year)
	if !r.writeOp(sql, func() { r.m.nextMovieID++; r.m.addMovie(mv) }) {
		return nil
	}
	r.describeOp(mv)
	r.followerAsk(yearCount(mv.year))
	return mv
}

func (r *run) updateMovie(mv *movie) bool {
	year := int64(firstYear + (int(mv.year-firstYear)+1+r.rng.Intn(yearSpan-1))%yearSpan)
	sql := fmt.Sprintf("update MOVIES set year = %d where id = %d", year, mv.id)
	if !r.writeOp(sql, func() { r.m.setYear(mv.id, year) }) {
		return false
	}
	r.describeOp(mv)
	r.followerAsk(yearCount(year))
	return true
}

func (r *run) deleteMovie(mv *movie) (question, *core.Response) {
	q := yearCount(mv.year)
	if !r.writeOp(fmt.Sprintf("delete from MOVIES where id = %d", mv.id), func() { r.m.deleteMovie(mv.id) }) {
		return q, nil
	}
	return q, r.followerAsk(q)
}

// writeOp asks one DML statement on the primary, applies it to the model,
// and waits until the follower has applied it.
func (r *run) writeOp(sql string, apply func()) bool {
	if r.inLoop {
		r.attempted++
	}
	r.tr.request()
	fs0 := r.c.fs.counters()
	ck0 := r.checkpoints()
	var (
		resp *core.Response
		err  error
	)
	d := timed(r.tr, "core.ask_dml", func() { resp, err = r.c.sys.Ask(sql) })
	if err != nil {
		r.failure(fmt.Errorf("%q: %w", sql, err))
		return false
	}
	apply()
	if resp.Affected != 1 {
		r.problem(fmt.Errorf("%q affected %d rows, want 1", sql, resp.Affected))
	}
	r.dmlBusy += d - (r.c.fs.counters().busy - fs0.busy)
	if r.checkpoints() != ck0 {
		r.checkpointWrites = append(r.checkpointWrites, d)
	}
	var werr error
	v := timed(r.tr, "repl.visible", func() { werr = r.c.waitApplied(10 * time.Second) })
	if werr != nil {
		r.failure(fmt.Errorf("%q: %w", sql, werr))
		return false
	}
	r.write = append(r.write, d)
	r.visible = append(r.visible, v)
	r.writes++
	r.writeBusy += d + v
	return true
}

func (r *run) checkpoints() uint64 {
	st, _ := r.c.db.DurabilityStats()
	return st.Checkpoints
}

// describeOp validates a written movie on the follower by translating its
// record back into text.
func (r *run) describeOp(mv *movie) {
	if r.inLoop {
		r.attempted++
	}
	var (
		text string
		err  error
	)
	d := timed(r.tr, "datatotext.describe", func() { text, err = r.c.fsys.DescribeEntity("MOVIES", "title", T(mv.title)) })
	if err != nil {
		r.failure(fmt.Errorf("describing %q: %w", mv.title, err))
		return
	}
	if err := checkDescription(text, mv); err != nil {
		r.problem(err)
	}
	r.describe = append(r.describe, d)
	r.writeBusy += d
}

// followerAsk asks the follower one question about the record just written.
// On ingest-validate it is the workload's question; in the read workloads'
// epilogue it is checked but not timed.
func (r *run) followerAsk(q question) *core.Response {
	var into *samples
	if r.inLoop {
		into = &r.ask
	}
	resp, d := r.askOp(r.c.fsys, q, into)
	if resp == nil {
		return nil
	}
	if err := checkAnswer(q, r.m, resp); err != nil {
		r.problem(err)
	}
	r.writeBusy += d
	if r.inLoop {
		if r.led != nil {
			if err := r.led.replay(r.tr, r.ledgerFSys, q, r.led.questions%8 == 0); err != nil {
				r.problem(fmt.Errorf("ledger: %s: %w", q.class, err))
			}
		}
	}
	return resp
}

// ---------------------------------------------------------------------------
// Final checks
// ---------------------------------------------------------------------------

// finalChecks runs after the epilogue and before any clean shutdown: the
// primary and the follower must equal the model, the primary must not have
// dropped its follower, the follower must never have been quarantined, and
// a crash image of only the synced bytes must recover to the model.
func (r *run) finalChecks() {
	c := r.c
	if err := c.waitApplied(30 * time.Second); err != nil {
		r.problem(err)
		return
	}
	want := r.m.tableRows()
	if err := sameTables(want, dbRows(c.db.Snapshot())); err != nil {
		r.problem(fmt.Errorf("primary diverged from the model: %w", err))
	}
	if err := sameTables(want, dbRows(c.fdb.Snapshot())); err != nil {
		r.problem(fmt.Errorf("follower diverged from the model: %w", err))
	}
	if st := c.primary.Stats(); st.Dropped != 0 || len(st.Followers) != 1 {
		r.problem(fmt.Errorf("primary dropped %d links and holds %d followers", st.Dropped, len(st.Followers)))
	}
	if q := c.follower.Quarantined(); q != nil {
		r.problem(fmt.Errorf("follower quarantined at seq %d: %s", q.Seq, q.Reason))
	}
	rdb, d, err := recoverCrashImage(c.fs)
	if err != nil {
		r.problem(fmt.Errorf("recovering the crash image: %w", err))
		return
	}
	r.recoverTime = d
	if err := sameTables(want, dbRows(rdb.Snapshot())); err != nil {
		r.problem(fmt.Errorf("crash image diverged from the model: %w", err))
	}
	if err := rdb.CloseDurability(); err != nil {
		r.problem(err)
	}
}
