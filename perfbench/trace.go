package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanName indexes spanNames. Every name is "<layer>.<call>", and the
// layer is the module the call enters: hyper (the operation itself),
// backend, store, pager (the database file) or wal (the log file).
type spanName uint16

var spanNames []string

func newSpanName(name string) spanName {
	spanNames = append(spanNames, name)
	return spanName(len(spanNames) - 1)
}

const (
	layerHyper = iota
	layerBackend
	layerStore
	layerPager
	layerWAL
	numLayers
)

var layerNames = [numLayers]string{"hyper", "backend", "store", "pager", "wal"}

func layerOf(n spanName) int {
	prefix, _, _ := strings.Cut(spanNames[n], ".")
	for i, l := range layerNames {
		if l == prefix {
			return i
		}
	}
	panic("perfbench: span " + spanNames[n] + " has no layer")
}

// pass says which part of the protocol a span ran in, so per-layer
// metrics can be split the way the end-to-end ones are.
type pass uint8

const (
	passOther pass = iota // setup, input drawing, output and state checks
	passColdRead
	passWarmRead
	passColdWrite
	passWarmWrite
	passWriter // the remote workload's concurrent edit session
	numPasses
)

var passNames = [numPasses]string{"other", "cold_read", "warm_read", "cold_write", "warm_write", "writer"}

func (p pass) writes() bool { return p == passColdWrite || p == passWarmWrite || p == passWriter }
func (p pass) reads() bool  { return p == passColdRead || p == passWarmRead }

// epoch is the shared time base of every tracer, so spans recorded on
// different goroutines (the remote reader, writer and server) compare.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// opSeq numbers operations and spanSeq spans, across all tracers.
var opSeq, spanSeq atomic.Uint32

// span is one recorded call: which operation it served, its own ID,
// the ID of the span that caused it (0 for a root), and when it ran.
type span struct {
	op, id, parent uint32
	name           spanName
	start, end     int64
}

// spanLog keeps spans in memory until the run ends; past its capacity
// it only counts what it dropped, so tracing never grows without bound.
type spanLog struct {
	mu      sync.Mutex
	spans   []span
	limit   int
	dropped int
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	if len(l.spans) < l.limit {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// write stores the kept spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range l.spans {
		fmt.Fprintf(w, "{\"op\":%d,\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.op, s.id, s.parent, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stat accumulates the spans of one name in one pass.
type stat struct {
	count, bytes uint64
	dur, self    int64
}

// hist is a log-bucketed latency histogram with 2% resolution: enough
// for per-layer medians and tails without keeping every sample.
type hist struct {
	n uint64
	b [1400]uint32
}

const histScale = 50 // buckets per factor e

func (h *hist) add(ns int64) {
	if ns < 1 {
		ns = 1
	}
	i := int(math.Log(float64(ns)) * histScale)
	if i >= len(h.b) {
		i = len(h.b) - 1
	}
	h.b[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.b {
		h.b[i] += c
	}
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.b {
		seen += uint64(c)
		if seen >= rank {
			return math.Exp((float64(i) + 0.5) / histScale)
		}
	}
	return math.Exp(float64(len(h.b)) / histScale)
}

// interval is a span kept whole for overlap arithmetic: the remote
// writer's commits against the server's WAL syncs.
type interval struct{ start, end int64 }

// agg is everything the per-layer metrics need from one round.
type agg struct {
	s [numPasses][]stat // indexed by spanName

	getHit, getMiss   hist // store.Get that hit / missed the buffer pool
	commitRO          hist // store.Commit after an operation that dirtied nothing
	commitWSelf       hist // a writing store.Commit minus its vfs time
	commitWriter      hist // the remote writer's store.Commit
	commitWire        hist // the same minus the server's WAL syncs
	pagerRead, pagerW hist
	walSync           hist
	writerCommits     []interval // remote writer's store.Commit spans
	serverSyncs       []interval // remote server's wal.Sync spans
	serverVFS         []interval // every remote server vfs span

	// selfSum and rootSum are the self times of all client-side spans
	// and the durations of the operation spans, over the protocol
	// passes; they are equal when every span sits inside an operation.
	selfSum, rootSum int64
}

func newAgg() *agg {
	a := &agg{}
	for p := range a.s {
		a.s[p] = make([]stat, len(spanNames))
	}
	return a
}

func (a *agg) merge(o *agg) {
	for p := range a.s {
		for n := range a.s[p] {
			x, y := &a.s[p][n], o.s[p][n]
			x.count += y.count
			x.bytes += y.bytes
			x.dur += y.dur
			x.self += y.self
		}
	}
	a.getHit.merge(&o.getHit)
	a.getMiss.merge(&o.getMiss)
	a.commitRO.merge(&o.commitRO)
	a.commitWSelf.merge(&o.commitWSelf)
	a.commitWriter.merge(&o.commitWriter)
	a.commitWire.merge(&o.commitWire)
	a.pagerRead.merge(&o.pagerRead)
	a.pagerW.merge(&o.pagerW)
	a.walSync.merge(&o.walSync)
	a.writerCommits = append(a.writerCommits, o.writerCommits...)
	a.serverSyncs = append(a.serverSyncs, o.serverSyncs...)
	a.serverVFS = append(a.serverVFS, o.serverVFS...)
	a.selfSum += o.selfSum
	a.rootSum += o.rootSum
}

// recordVFS folds one vfs span into the histograms its layer reports.
func (a *agg) recordVFS(n spanName, dur int64) {
	switch n {
	case sPagerRead:
		a.pagerRead.add(dur)
	case sPagerWrite:
		a.pagerW.add(dur)
	case sWALSync:
		a.walSync.add(dur)
	}
}

// layerSum adds up one layer's spans over the given passes.
func (a *agg) layerSum(layer int, passes ...pass) stat {
	var out stat
	for _, p := range passes {
		for n, st := range a.s[p] {
			if layerOf(spanName(n)) == layer {
				out.count += st.count
				out.bytes += st.bytes
				out.dur += st.dur
				out.self += st.self
			}
		}
	}
	return out
}

// nameSum adds up the spans of the given names over all passes.
func (a *agg) nameSum(names ...spanName) stat {
	var out stat
	for p := range a.s {
		for _, n := range names {
			st := a.s[p][n]
			out.count += st.count
			out.bytes += st.bytes
			out.dur += st.dur
			out.self += st.self
		}
	}
	return out
}

// tracer records the spans of one goroutine. Calls nest strictly on
// one goroutine, so a stack of open spans gives each span its parent
// and its self time: its duration minus the durations of the spans it
// directly contains.
type tracer struct {
	stack []frame
	op    uint32
	pass  pass
	agg   *agg
	keep  *spanLog // nil when spans are not kept
}

type frame struct {
	name     spanName
	id       uint32
	parent   uint32
	start    int64
	children int64
	nchild   int32
}

func newTracer() *tracer { return &tracer{agg: newAgg()} }

// beginOp opens the root span of one operation, with a fresh ID.
func (t *tracer) beginOp(n spanName) {
	t.op = opSeq.Add(1)
	t.begin(n)
}

func (t *tracer) begin(n spanName) int64 {
	var parent uint32
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1].id
	}
	start := now()
	t.stack = append(t.stack, frame{name: n, id: spanSeq.Add(1), parent: parent, start: start})
	return start
}

// end closes the innermost span and returns its duration, its self
// time and the number of spans it directly contained.
func (t *tracer) end(bytes int) (dur, self int64, nchild int32) {
	e := now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur = e - f.start
	if len(t.stack) > 0 {
		p := &t.stack[len(t.stack)-1]
		p.children += dur
		p.nchild++
	}
	self = dur - f.children
	st := &t.agg.s[t.pass][f.name]
	st.count++
	st.dur += dur
	st.self += self
	if bytes > 0 {
		st.bytes += uint64(bytes)
	}
	if t.keep != nil {
		t.keep.add(span{op: t.op, id: f.id, parent: f.parent, name: f.name, start: f.start, end: e})
	}
	return dur, self, f.nchild
}

// recorder is what the vfs wrapper records into: the stack tracer in
// the local workloads, the server's flat recorder in the remote one.
type recorder interface {
	begin(n spanName) int64
	finish(n spanName, start int64, bytes int)
}

func (t *tracer) finish(n spanName, _ int64, bytes int) {
	dur, _, _ := t.end(bytes)
	t.agg.recordVFS(n, dur)
}

// flatRecorder records the page server's vfs calls. They run on the
// server's goroutines, outside any client span, so they have no parent
// and no operation ID; the remote metrics relate them to client spans
// by time.
type flatRecorder struct {
	// pass is the reader's current pass, which the server's calls are
	// filed under: they serve the reader's fetches, or the writer's
	// commits that run beside them.
	pass atomic.Uint32
	mu   sync.Mutex
	agg  *agg
	keep *spanLog
}

func newFlatRecorder() *flatRecorder { return &flatRecorder{agg: newAgg()} }

func (r *flatRecorder) begin(spanName) int64 { return now() }

func (r *flatRecorder) finish(n spanName, start int64, bytes int) {
	e := now()
	dur := e - start
	r.mu.Lock()
	defer r.mu.Unlock()
	st := &r.agg.s[r.pass.Load()][n]
	st.count++
	st.dur += dur
	st.self += dur
	if bytes > 0 {
		st.bytes += uint64(bytes)
	}
	r.agg.recordVFS(n, dur)
	r.agg.serverVFS = append(r.agg.serverVFS, interval{start, e})
	if n == sWALSync {
		r.agg.serverSyncs = append(r.agg.serverSyncs, interval{start, e})
	}
	if r.keep != nil {
		r.keep.add(span{id: spanSeq.Add(1), name: n, start: start, end: e})
	}
}

// take returns the spans recorded since the last take.
func (r *flatRecorder) take() *agg {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.agg
	r.agg = newAgg()
	return a
}
