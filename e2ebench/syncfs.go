package main

import (
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/wal"
)

// syncFS wraps a wal.MemFS and keeps, next to the live files the database
// reads back, the image a power cut would leave: a file's bytes survive only
// up to its last Sync, and a create, rename or remove reaches the directory
// only at the next SyncDir. It also counts the device traffic the wal.*
// metrics report.
type syncFS struct {
	inner *wal.MemFS

	mu      sync.Mutex
	live    map[string]*inode // names as the process sees them
	durable map[string]*inode // names as the directory holds them after a crash

	writes, bytes, syncs int64
	busy                 time.Duration // time inside Write and Sync
}

// inode is one file's crash view: synced is what survives, pending what a
// crash would lose. truncated marks a Create over an existing file whose
// emptying is itself not yet synced.
type inode struct {
	synced, pending []byte
	truncated       bool
}

func newSyncFS() *syncFS {
	return &syncFS{inner: wal.NewMemFS(), live: map[string]*inode{}, durable: map[string]*inode{}}
}

type fsCounters struct {
	writes, bytes, syncs int64
	busy                 time.Duration
}

func (f *syncFS) counters() fsCounters {
	f.mu.Lock()
	defer f.mu.Unlock()
	return fsCounters{writes: f.writes, bytes: f.bytes, syncs: f.syncs, busy: f.busy}
}

// crashImage returns a fresh MemFS holding only what a power cut at this
// instant would leave on the device.
func (f *syncFS) crashImage() (*wal.MemFS, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	img := wal.NewMemFS()
	for name, ino := range f.durable {
		w, err := img.Create(name)
		if err != nil {
			return nil, err
		}
		if _, err := w.Write(ino.synced); err != nil {
			return nil, err
		}
	}
	return img, nil
}

// names lists the live files.
func (f *syncFS) names() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.live))
	for n := range f.live {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (f *syncFS) Create(name string) (wal.File, error) {
	w, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ino, ok := f.live[name]
	if ok {
		// O_TRUNC keeps the inode: the old synced bytes stay on the device
		// until the emptied file is synced.
		ino.pending = ino.pending[:0]
		ino.truncated = true
	} else {
		ino = &inode{}
		f.live[name] = ino
	}
	return &syncFile{fs: f, ino: ino, w: w}, nil
}

func (f *syncFS) OpenAppend(name string) (wal.File, error) {
	w, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ino, ok := f.live[name]
	if !ok {
		ino = &inode{}
		f.live[name] = ino
	}
	return &syncFile{fs: f, ino: ino, w: w}, nil
}

func (f *syncFS) Open(name string) (io.ReadCloser, error) { return f.inner.Open(name) }

func (f *syncFS) Rename(oldname, newname string) error {
	if err := f.inner.Rename(oldname, newname); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.live[newname] = f.live[oldname]
	delete(f.live, oldname)
	return nil
}

func (f *syncFS) Remove(name string) error {
	if err := f.inner.Remove(name); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.live, name)
	return nil
}

func (f *syncFS) Exists(name string) (bool, error) { return f.inner.Exists(name) }
func (f *syncFS) Size(name string) (int64, error)  { return f.inner.Size(name) }
func (f *syncFS) SyncDir() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.durable = make(map[string]*inode, len(f.live))
	for n, ino := range f.live {
		f.durable[n] = ino
	}
	return nil
}

type syncFile struct {
	fs  *syncFS
	ino *inode
	w   wal.File
}

func (s *syncFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := s.w.Write(p)
	s.fs.mu.Lock()
	s.ino.pending = append(s.ino.pending, p[:n]...)
	s.fs.writes++
	s.fs.bytes += int64(n)
	s.fs.busy += time.Since(start)
	s.fs.mu.Unlock()
	return n, err
}

func (s *syncFile) Sync() error {
	start := time.Now()
	err := s.w.Sync()
	s.fs.mu.Lock()
	if err == nil {
		if s.ino.truncated {
			s.ino.synced = s.ino.synced[:0]
			s.ino.truncated = false
		}
		s.ino.synced = append(s.ino.synced, s.ino.pending...)
		s.ino.pending = s.ino.pending[:0]
		s.fs.syncs++
	}
	s.fs.busy += time.Since(start)
	s.fs.mu.Unlock()
	return err
}

func (s *syncFile) Close() error { return s.w.Close() }
