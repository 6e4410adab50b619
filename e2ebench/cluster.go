package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/repl"
	"repro/internal/storage"
)

// cluster is the system under test: a durable primary System over a syncFS
// (auto-checkpoint at the default 4 MiB), a replication primary on a
// loopback listener, and one in-process follower whose own System serves
// follower reads. Every workload builds the same cluster; only the rows
// differ.
type cluster struct {
	fs       *syncFS
	db       *storage.Database
	sys      *core.System
	primary  *repl.Primary
	addr     string
	fdb      *storage.Database
	follower *repl.Follower
	fsys     *core.System

	loadTime  time.Duration
	versions  uint64 // versions published while loading
	closedErr error
}

// startCluster loads m into a fresh database and brings the cluster up,
// returning once the follower has applied everything the primary holds.
func startCluster(m *model) (*cluster, error) {
	c := &cluster{fs: newSyncFS()}
	db, err := storage.NewDatabase(dataset.MovieSchema())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := m.load(db); err != nil {
		return nil, fmt.Errorf("loading rows: %w", err)
	}
	c.loadTime = time.Since(start)
	c.versions = db.Published()
	c.db = db
	c.sys, _, err = core.NewDurable(db, c.fs, storage.DurableOptions{}, core.MovieConfig())
	if err != nil {
		return nil, fmt.Errorf("enabling durability: %w", err)
	}
	c.primary, err = repl.NewPrimary(db, repl.PrimaryOptions{})
	if err != nil {
		c.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.close()
		return nil, err
	}
	c.addr = ln.Addr().String()
	c.primary.Start(ln)
	c.fdb, err = storage.NewDatabase(dataset.MovieSchema())
	if err != nil {
		c.close()
		return nil, err
	}
	c.fsys, err = core.New(c.fdb, core.MovieConfig())
	if err != nil {
		c.close()
		return nil, err
	}
	c.follower, err = repl.StartFollower(c.fdb, repl.FollowerOptions{Addr: c.addr})
	if err != nil {
		c.close()
		return nil, err
	}
	f := c.follower
	c.fsys.SetReplica(func() core.ReplicaStatus {
		st := f.Status()
		return core.ReplicaStatus{
			Follower: true, AppliedSeq: st.AppliedSeq, PrimarySeq: st.PrimarySeq, Lag: st.Lag,
			Connected: st.Connected, Quarantined: st.Quarantined, QuarantineSeq: st.QuarantineSeq,
			QuarantineReason: st.QuarantineReason, Catchup: st.Catchup,
		}
	})
	if err := c.waitApplied(30 * time.Second); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// lastSeq is the primary's last committed sequence.
func (c *cluster) lastSeq() uint64 {
	st, _ := c.db.DurabilityStats()
	return st.LastSeq
}

// waitApplied blocks until the follower has applied the primary's last
// committed record. It polls every 20µs rather than spinning: on a 2-vCPU
// host a spinning client takes a CPU from the follower it is waiting for.
func (c *cluster) waitApplied(limit time.Duration) error {
	target := c.lastSeq()
	deadline := time.Now().Add(limit)
	for n := 0; ; n++ {
		if c.follower.Status().AppliedSeq >= target {
			return nil
		}
		if n%64 == 0 {
			if q := c.follower.Quarantined(); q != nil {
				return fmt.Errorf("follower quarantined at seq %d: %s", q.Seq, q.Reason)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("follower stuck at seq %d, primary at %d", c.follower.Status().AppliedSeq, target)
			}
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// close stops the follower, the primary and its listener, and detaches the
// log, in that order. Errors are kept for the clean-exit check.
func (c *cluster) close() {
	var errs []error
	if c.follower != nil {
		errs = append(errs, c.follower.Close())
		c.follower = nil
	}
	if c.primary != nil {
		errs = append(errs, c.primary.Close())
		c.primary = nil
	}
	if c.db != nil {
		errs = append(errs, c.db.CloseDurability())
	}
	c.closedErr = errors.Join(errs...)
}

// checkGone verifies that nothing the cluster started outlives it: the
// listener refuses connections, the goroutine count is back to base, and the
// log directory holds no checkpoint temporaries.
func (c *cluster) checkGone(baseGoroutines int) error {
	if c.closedErr != nil {
		return fmt.Errorf("closing: %w", c.closedErr)
	}
	if conn, err := net.DialTimeout("tcp", c.addr, time.Second); err == nil {
		conn.Close()
		return fmt.Errorf("listener %s still accepts connections", c.addr)
	}
	for _, n := range c.fs.names() {
		if strings.HasSuffix(n, ".tmp") {
			return fmt.Errorf("temporary file %s left in the log directory", n)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			return fmt.Errorf("%d goroutines left, %d before set-up:\n%s", runtime.NumGoroutine(), baseGoroutines, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
