package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"soral/internal/core"
	"soral/internal/linalg"
	"soral/internal/obs"
	"soral/internal/obs/attr"
	"soral/internal/obs/journal"
	"soral/internal/obs/tsdb"
	"soral/internal/obs/watch"
	"soral/internal/resilience"
)

// durablePath is the commit path of online-warm-durable, wired as
// `soral -warm -journal f -fsync commit -watch` wires it: a journal file
// fsynced on every commit, a /runs feed with one in-process subscriber
// draining it, and the watchdog (tsdb sampler plus alert rules) ticking
// against the run's registry.
type durablePath struct {
	path    string
	file    *os.File
	timed   *timedFile // nil unless traced
	jw      *journal.Writer
	feed    *journal.Feed
	sampler *tsdb.Sampler
	tr      *tracer
	stop    context.CancelFunc
	unsub   func()
	sampled chan struct{} // closed when the sampler goroutine has exited
	drained chan struct{} // closed when the feed drain goroutine has exited
	done    bool
}

// openDurable creates the journal at path, attaches the feed and the
// watchdog to reg, wires both into opts, starts their goroutines and
// writes the journal header.
func openDurable(path string, reg *obs.Registry, opts *core.Options, tr *tracer) (*durablePath, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	d := &durablePath{path: path, file: f, tr: tr,
		sampled: make(chan struct{}), drained: make(chan struct{})}
	var w io.Writer = f
	var s journal.Syncer = f
	if tr != nil {
		d.timed = &timedFile{f: f, tr: tr}
		w, s = d.timed, d.timed
	}
	d.feed = journal.NewFeed(0)
	d.jw = journal.NewWriter(w).WithSync(s, journal.SyncOnCommit()).Attach(d.feed)
	health := resilience.NewHealth()
	opts.Journal, opts.Health = d.jw, health

	eng := watch.New().Metrics(reg).Journal(d.jw)
	approach, exceeded := watch.CompetitiveRatioRules(reg, attr.Certificate(eps), 0, 3)
	collapse, blowup := watch.WarmStartRules(reg, watch.WarmConfig{})
	eng.AddRule(approach, exceeded, collapse, blowup, watch.DegradationBurst(health, 0),
		watch.FeedDropRate(d.feed, 0, 0))
	d.sampler = &tsdb.Sampler{DB: tsdb.New(tsdb.Options{}), Reg: reg, Runtime: true, AfterSample: eng.Eval}

	_, lines, unsub := d.feed.Subscribe()
	d.unsub = unsub
	ctx, stop := context.WithCancel(context.Background())
	d.stop = stop
	go func() {
		defer close(d.drained)
		for range lines {
		}
	}()
	go func() {
		defer close(d.sampled)
		d.sampler.Run(ctx, 0)
	}()
	d.jw.Begin(journal.Header{Algorithm: "online", GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers: linalg.ResolveWorkers(opts.Solver.Workers)})
	return d, nil
}

// abort releases everything a pass that ended early left open. It is a
// no-op after finish.
func (d *durablePath) abort() {
	if d.done {
		return
	}
	d.done = true
	d.stop()
	d.unsub()
	<-d.sampled
	<-d.drained
	d.file.Close()
	os.Remove(d.path)
}

// finish ends the pass's journal and checks it: it stops the watchdog (in
// the traced run, then times a few sampler ticks from outside, the
// sampler's goroutine being its only writer), writes the footer, closes
// the file and re-reads it. Every record must
// carry a valid CRC, every committed slot exactly one slot and one state
// record whose digest matches the decision core.Online returned, and the
// footer's total cost must reconcile with the slot records and with
// res.cost. It returns the number of failed checks.
func (d *durablePath) finish(res *passResult, layers *layerStats, log io.Writer) int {
	d.stop()
	<-d.sampled
	if layers != nil {
		layers.timeTicks(d.tr, d.sampler)
	}
	d.jw.End(journal.Footer{TotalCost: res.cost})
	d.unsub()
	<-d.drained
	d.done = true
	failed := 0
	if err := d.jw.Err(); err != nil {
		fmt.Fprintf(log, "journal: %v\n", err)
		failed++
	}
	if err := d.file.Close(); err != nil {
		fmt.Fprintf(log, "journal close: %v\n", err)
		failed++
	}
	if layers != nil {
		layers.addJournal(d.timed, d.feed.Dropped())
	}
	failed += checkJournal(d.path, res, log)
	os.Remove(d.path)
	return failed
}

// checkJournal re-reads a finished journal and reconciles it with the
// pass's decisions and cost; see finish.
func checkJournal(path string, res *passResult, log io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(log, "journal: %v\n", err)
		return len(res.digests)
	}
	defer f.Close()
	j, err := journal.Read(f)
	if err != nil {
		fmt.Fprintf(log, "journal: %v\n", err)
		return len(res.digests)
	}
	failed := 0
	if len(j.Slots) != len(res.digests) {
		fmt.Fprintf(log, "journal: %d slot records for %d committed slots\n", len(j.Slots), len(res.digests))
		failed++
	}
	var journaled float64
	for i, r := range j.Slots {
		journaled += r.AllocCost + r.ReconfCost
		if i < len(res.digests) && (r.Slot != i || r.DecisionDigest != res.digests[i]) {
			fmt.Fprintf(log, "journal: record %d (slot %d) does not match the committed decision\n", i, r.Slot)
			failed++
		}
	}
	if j.Footer == nil || !closeTo(j.Footer.TotalCost, res.cost, costRelTol) || !closeTo(journaled, res.cost, costRelTol) {
		fmt.Fprintf(log, "journal: footer/slot costs do not reconcile with total cost %g\n", res.cost)
		failed++
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		fmt.Fprintf(log, "journal: %v\n", err)
		return failed + 1
	}
	var states int
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		var rec struct {
			Kind string `json:"kind"`
		}
		if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Kind == journal.KindState {
			states++
		}
	}
	if sc.Err() != nil || states != len(res.digests) {
		fmt.Fprintf(log, "journal: %d state records for %d committed slots\n", states, len(res.digests))
		failed++
	}
	return failed
}

// journalPath names the journal file of the next pass.
func (b *bench) journalPath() string {
	return fmt.Sprintf("%s/journal-%d-%d.jsonl", b.dir, os.Getpid(), time.Now().UnixNano())
}
