package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one recorded interval around a call into a layer. Spans of one
// op share Op; Parent is 0 for a root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer holds the traced run's spans in memory until the run ends. The
// spans are recorded by the benchmark around its own calls into the
// program; the program itself is not instrumented further. A nil tracer
// records nothing.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	open   []int // stack of open span IDs on the driving goroutine
	op     int   // op the next spans belong to; -1 outside any op
}

func newTracer() *tracer { return &tracer{origin: time.Now(), op: -1} }

// setOp tags the spans started from now on with op id (-1: none).
func (t *tracer) setOp(op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
}

// start opens a span under the innermost open one and returns its ID.
func (t *tracer) start(name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, StartNS: now})
	t.open = append(t.open, id)
	return id
}

// end closes span id and every span opened inside it.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = now
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = t.open[:i]
			break
		}
	}
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedFile is the io.Writer and journal.Syncer handed to the journal
// writer in the traced run: it times every Write and Sync and counts bytes.
// The journal writer serializes its calls under its own lock; the counters
// are read only after the pass, once every writer has stopped.
type timedFile struct {
	f      *os.File
	tr     *tracer
	bytes  int
	writes []float64 // seconds per Write
	syncs  []float64 // seconds per Sync
}

func (w *timedFile) Write(p []byte) (int, error) {
	id := w.tr.start("journal.write")
	t0 := time.Now()
	n, err := w.f.Write(p)
	w.writes = append(w.writes, time.Since(t0).Seconds())
	w.tr.end(id)
	w.bytes += n
	return n, err
}

func (w *timedFile) Sync() error {
	id := w.tr.start("journal.sync")
	t0 := time.Now()
	err := w.f.Sync()
	w.syncs = append(w.syncs, time.Since(t0).Seconds())
	w.tr.end(id)
	return err
}
