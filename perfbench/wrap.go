package main

import (
	"fmt"
	"strings"

	"hypermodel/internal/hyper"
	"hypermodel/internal/objstore"
	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/store"
	"hypermodel/internal/storage/vfs"
)

// The wrappers in this file time the calls into each layer's public
// interface from outside the program. Each one forwards every call
// unchanged and exposes exactly the optional interfaces its target
// has, because the layers above discover capabilities by type
// assertion: a wrapper that hid one (or faked one) would change the
// code path it measures. Store handles (Page, MarkDirty, Release) are
// not wrapped; their few nanoseconds count as the caller's self time.

var (
	bCreateNode     = newSpanName("backend.CreateNode")
	bCreateTextNode = newSpanName("backend.CreateTextNode")
	bCreateFormNode = newSpanName("backend.CreateFormNode")
	bAddChild       = newSpanName("backend.AddChild")
	bAddPart        = newSpanName("backend.AddPart")
	bAddRef         = newSpanName("backend.AddRef")
	bNode           = newSpanName("backend.Node")
	bHundred        = newSpanName("backend.Hundred")
	bSetHundred     = newSpanName("backend.SetHundred")
	bOIDOf          = newSpanName("backend.OIDOf")
	bHundredByOID   = newSpanName("backend.HundredByOID")
	bRangeHundred   = newSpanName("backend.RangeHundred")
	bRangeMillion   = newSpanName("backend.RangeMillion")
	bChildren       = newSpanName("backend.Children")
	bParts          = newSpanName("backend.Parts")
	bRefsTo         = newSpanName("backend.RefsTo")
	bParent         = newSpanName("backend.Parent")
	bPartOf         = newSpanName("backend.PartOf")
	bRefsFrom       = newSpanName("backend.RefsFrom")
	bScanTen        = newSpanName("backend.ScanTen")
	bText           = newSpanName("backend.Text")
	bSetText        = newSpanName("backend.SetText")
	bForm           = newSpanName("backend.Form")
	bSetForm        = newSpanName("backend.SetForm")
	bPutBlob        = newSpanName("backend.PutBlob")
	bGetBlob        = newSpanName("backend.GetBlob")
	bDeleteBlob     = newSpanName("backend.DeleteBlob")
	bCommit         = newSpanName("backend.Commit")
	bDropCaches     = newSpanName("backend.DropCaches")
	bClose          = newSpanName("backend.Close")
	bAbort          = newSpanName("backend.Abort")
	bNodesBatch     = newSpanName("backend.NodesBatch")
	bHundredBatch   = newSpanName("backend.HundredBatch")
	bChildrenBatch  = newSpanName("backend.ChildrenBatch")
	bPartsBatch     = newSpanName("backend.PartsBatch")
	bRefsToBatch    = newSpanName("backend.RefsToBatch")
	bPrefetch       = newSpanName("backend.PrefetchFrontier")
	bPrefetchWait   = newSpanName("backend.PrefetchWait")

	sGet           = newSpanName("store.Get")
	sAlloc         = newSpanName("store.Alloc")
	sFree          = newSpanName("store.Free")
	sRoot          = newSpanName("store.Root")
	sSetRoot       = newSpanName("store.SetRoot")
	sCommit        = newSpanName("store.Commit")
	sDropCache     = newSpanName("store.DropCache")
	sAbort         = newSpanName("store.Abort")
	sClose         = newSpanName("store.Close")
	sPrefetch      = newSpanName("store.Prefetch")
	sPrefetchAsync = newSpanName("store.PrefetchAsync")
	sPrefetchWait  = newSpanName("store.PrefetchWait")

	sPagerRead  = newSpanName("pager.ReadAt")
	sPagerWrite = newSpanName("pager.WriteAt")
	sPagerSync  = newSpanName("pager.Sync")
	sPagerTrunc = newSpanName("pager.Truncate")
	sPagerSize  = newSpanName("pager.Size")
	sPagerClose = newSpanName("pager.Close")
	sWALRead    = newSpanName("wal.ReadAt")
	sWALWrite   = newSpanName("wal.WriteAt")
	sWALSync    = newSpanName("wal.Sync")
	sWALTrunc   = newSpanName("wal.Truncate")
	sWALSize    = newSpanName("wal.Size")
	sWALClose   = newSpanName("wal.Close")

	batchCalls = []spanName{bNodesBatch, bHundredBatch, bChildrenBatch, bPartsBatch, bRefsToBatch}
)

// --- hyper.Backend ---

// tracedDB spans every hyper.DB call. wrapDB picks the variant that
// adds exactly the target's optional BatchReader and
// FrontierPrefetcher.
type tracedDB struct {
	db hyper.DB
	tr *tracer
}

type batchMethods struct{ *tracedDB }
type prefetchMethods struct{ *tracedDB }

type tracedBatchDB struct {
	*tracedDB
	batchMethods
}

type tracedPrefetchDB struct {
	*tracedDB
	prefetchMethods
}

type tracedBatchPrefetchDB struct {
	*tracedDB
	batchMethods
	prefetchMethods
}

func wrapDB(db hyper.DB, tr *tracer) hyper.DB {
	w := &tracedDB{db: db, tr: tr}
	_, batch := db.(hyper.BatchReader)
	_, prefetch := db.(hyper.FrontierPrefetcher)
	switch {
	case batch && prefetch:
		return tracedBatchPrefetchDB{w, batchMethods{w}, prefetchMethods{w}}
	case batch:
		return tracedBatchDB{w, batchMethods{w}}
	case prefetch:
		return tracedPrefetchDB{w, prefetchMethods{w}}
	}
	return w
}

func (w *tracedDB) Name() string { return w.db.Name() }

func (w *tracedDB) CreateNode(n hyper.Node, near hyper.NodeID) error {
	w.tr.begin(bCreateNode)
	defer w.tr.end(0)
	return w.db.CreateNode(n, near)
}

func (w *tracedDB) CreateTextNode(n hyper.Node, text string, near hyper.NodeID) error {
	w.tr.begin(bCreateTextNode)
	defer w.tr.end(0)
	return w.db.CreateTextNode(n, text, near)
}

func (w *tracedDB) CreateFormNode(n hyper.Node, bm hyper.Bitmap, near hyper.NodeID) error {
	w.tr.begin(bCreateFormNode)
	defer w.tr.end(0)
	return w.db.CreateFormNode(n, bm, near)
}

func (w *tracedDB) AddChild(parent, child hyper.NodeID) error {
	w.tr.begin(bAddChild)
	defer w.tr.end(0)
	return w.db.AddChild(parent, child)
}

func (w *tracedDB) AddPart(whole, part hyper.NodeID) error {
	w.tr.begin(bAddPart)
	defer w.tr.end(0)
	return w.db.AddPart(whole, part)
}

func (w *tracedDB) AddRef(e hyper.Edge) error {
	w.tr.begin(bAddRef)
	defer w.tr.end(0)
	return w.db.AddRef(e)
}

func (w *tracedDB) Node(id hyper.NodeID) (hyper.Node, error) {
	w.tr.begin(bNode)
	defer w.tr.end(0)
	return w.db.Node(id)
}

func (w *tracedDB) Hundred(id hyper.NodeID) (int32, error) {
	w.tr.begin(bHundred)
	defer w.tr.end(0)
	return w.db.Hundred(id)
}

func (w *tracedDB) SetHundred(id hyper.NodeID, v int32) error {
	w.tr.begin(bSetHundred)
	defer w.tr.end(0)
	return w.db.SetHundred(id, v)
}

func (w *tracedDB) OIDOf(id hyper.NodeID) (hyper.OID, error) {
	w.tr.begin(bOIDOf)
	defer w.tr.end(0)
	return w.db.OIDOf(id)
}

func (w *tracedDB) HundredByOID(oid hyper.OID) (int32, error) {
	w.tr.begin(bHundredByOID)
	defer w.tr.end(0)
	return w.db.HundredByOID(oid)
}

func (w *tracedDB) RangeHundred(lo, hi int32) ([]hyper.NodeID, error) {
	w.tr.begin(bRangeHundred)
	defer w.tr.end(0)
	return w.db.RangeHundred(lo, hi)
}

func (w *tracedDB) RangeMillion(lo, hi int32) ([]hyper.NodeID, error) {
	w.tr.begin(bRangeMillion)
	defer w.tr.end(0)
	return w.db.RangeMillion(lo, hi)
}

func (w *tracedDB) Children(id hyper.NodeID) ([]hyper.NodeID, error) {
	w.tr.begin(bChildren)
	defer w.tr.end(0)
	return w.db.Children(id)
}

func (w *tracedDB) Parts(id hyper.NodeID) ([]hyper.NodeID, error) {
	w.tr.begin(bParts)
	defer w.tr.end(0)
	return w.db.Parts(id)
}

func (w *tracedDB) RefsTo(id hyper.NodeID) ([]hyper.Edge, error) {
	w.tr.begin(bRefsTo)
	defer w.tr.end(0)
	return w.db.RefsTo(id)
}

func (w *tracedDB) Parent(id hyper.NodeID) (hyper.NodeID, bool, error) {
	w.tr.begin(bParent)
	defer w.tr.end(0)
	return w.db.Parent(id)
}

func (w *tracedDB) PartOf(id hyper.NodeID) ([]hyper.NodeID, error) {
	w.tr.begin(bPartOf)
	defer w.tr.end(0)
	return w.db.PartOf(id)
}

func (w *tracedDB) RefsFrom(id hyper.NodeID) ([]hyper.Edge, error) {
	w.tr.begin(bRefsFrom)
	defer w.tr.end(0)
	return w.db.RefsFrom(id)
}

func (w *tracedDB) ScanTen(first, last hyper.NodeID, visit func(id hyper.NodeID, ten int32) bool) error {
	w.tr.begin(bScanTen)
	defer w.tr.end(0)
	return w.db.ScanTen(first, last, visit)
}

func (w *tracedDB) Text(id hyper.NodeID) (string, error) {
	w.tr.begin(bText)
	defer w.tr.end(0)
	return w.db.Text(id)
}

func (w *tracedDB) SetText(id hyper.NodeID, text string) error {
	w.tr.begin(bSetText)
	defer w.tr.end(0)
	return w.db.SetText(id, text)
}

func (w *tracedDB) Form(id hyper.NodeID) (hyper.Bitmap, error) {
	w.tr.begin(bForm)
	defer w.tr.end(0)
	return w.db.Form(id)
}

func (w *tracedDB) SetForm(id hyper.NodeID, bm hyper.Bitmap) error {
	w.tr.begin(bSetForm)
	defer w.tr.end(0)
	return w.db.SetForm(id, bm)
}

func (w *tracedDB) PutBlob(key string, data []byte) error {
	w.tr.begin(bPutBlob)
	defer w.tr.end(0)
	return w.db.PutBlob(key, data)
}

func (w *tracedDB) GetBlob(key string) ([]byte, error) {
	w.tr.begin(bGetBlob)
	defer w.tr.end(0)
	return w.db.GetBlob(key)
}

func (w *tracedDB) DeleteBlob(key string) error {
	w.tr.begin(bDeleteBlob)
	defer w.tr.end(0)
	return w.db.DeleteBlob(key)
}

func (w *tracedDB) Commit() error {
	w.tr.begin(bCommit)
	defer w.tr.end(0)
	return w.db.Commit()
}

func (w *tracedDB) DropCaches() error {
	w.tr.begin(bDropCaches)
	defer w.tr.end(0)
	return w.db.DropCaches()
}

func (w *tracedDB) Close() error {
	w.tr.begin(bClose)
	defer w.tr.end(0)
	return w.db.Close()
}

func (w *tracedDB) Abort() error {
	w.tr.begin(bAbort)
	defer w.tr.end(0)
	return w.db.Abort()
}

func (w *tracedDB) Snapshot() (hyper.DB, error)    { return w.db.Snapshot() }
func (w *tracedDB) CommitStats() hyper.CommitStats { return w.db.CommitStats() }
func (w *tracedDB) CacheStats() (hits, misses, diskReads uint64) {
	return w.db.CacheStats()
}

func (w batchMethods) NodesBatch(ids []hyper.NodeID) ([]hyper.Node, error) {
	w.tr.begin(bNodesBatch)
	defer w.tr.end(0)
	return w.db.(hyper.BatchReader).NodesBatch(ids)
}

func (w batchMethods) HundredBatch(ids []hyper.NodeID) ([]int32, error) {
	w.tr.begin(bHundredBatch)
	defer w.tr.end(0)
	return w.db.(hyper.BatchReader).HundredBatch(ids)
}

func (w batchMethods) ChildrenBatch(ids []hyper.NodeID) ([][]hyper.NodeID, error) {
	w.tr.begin(bChildrenBatch)
	defer w.tr.end(0)
	return w.db.(hyper.BatchReader).ChildrenBatch(ids)
}

func (w batchMethods) PartsBatch(ids []hyper.NodeID) ([][]hyper.NodeID, error) {
	w.tr.begin(bPartsBatch)
	defer w.tr.end(0)
	return w.db.(hyper.BatchReader).PartsBatch(ids)
}

func (w batchMethods) RefsToBatch(ids []hyper.NodeID) ([][]hyper.Edge, error) {
	w.tr.begin(bRefsToBatch)
	defer w.tr.end(0)
	return w.db.(hyper.BatchReader).RefsToBatch(ids)
}

// PrefetchFrontier spans the kick; the wait it returns is spanned too,
// because the closure blocks in it until the backend's fetch settles.
func (w prefetchMethods) PrefetchFrontier(ids []hyper.NodeID) func() error {
	w.tr.begin(bPrefetch)
	wait := w.db.(hyper.FrontierPrefetcher).PrefetchFrontier(ids)
	w.tr.end(0)
	if wait == nil {
		return nil
	}
	return func() error {
		w.tr.begin(bPrefetchWait)
		defer w.tr.end(0)
		return wait()
	}
}

// --- store.Space ---

// space is what oodb.New and reldb.New take: both declare the same
// method set.
type space interface {
	store.Space
	DropCache() error
	Abort() error
	Close() error
	CacheStats() (hits, misses, reads uint64)
}

// tracedSpace spans every page-space call. Local stores and page-server
// clients differ in their optional interfaces, so wrapSpace returns the
// variant matching the target.
type tracedSpace struct {
	sp space
	tr *tracer
	// misses reads the client's cache-miss counter. A local store's
	// Get misses exactly when it reads the file, which shows as a
	// child vfs span; a client's misses are wire round trips the
	// benchmark cannot span, so they are counted instead.
	misses func() uint64
}

type localSpace struct{ *tracedSpace }
type remoteSpace struct{ *tracedSpace }

// spaceOptionals is every optional interface a backend or the object
// store looks for on its page space.
type spaceOptionals struct {
	prefetch, async, snapshot, storeStats, clientStats, readOnly bool
}

func optionalsOf(sp any) spaceOptionals {
	_, prefetch := sp.(objstore.Prefetcher)
	_, async := sp.(objstore.AsyncPrefetcher)
	_, snapshot := sp.(interface {
		Snapshot() (*store.SnapshotView, error)
	})
	_, storeStats := sp.(interface{ CommitStats() store.CommitStats })
	_, clientStats := sp.(interface{ CommitStats() (uint64, uint64) })
	_, readOnly := sp.(interface{ ReadOnly() bool })
	return spaceOptionals{prefetch, async, snapshot, storeStats, clientStats, readOnly}
}

var (
	localOptionals  = spaceOptionals{snapshot: true, storeStats: true}
	remoteOptionals = spaceOptionals{prefetch: true, async: true, clientStats: true}
)

func wrapSpace(sp space, tr *tracer) (space, error) {
	w := &tracedSpace{sp: sp, tr: tr}
	switch optionalsOf(sp) {
	case localOptionals:
		return localSpace{w}, nil
	case remoteOptionals:
		w.misses = func() uint64 {
			_, m, _ := sp.CacheStats()
			return m
		}
		return remoteSpace{w}, nil
	}
	return nil, fmt.Errorf("perfbench: no traced wrapper matches the optional interfaces of %T", sp)
}

func (w *tracedSpace) Get(id page.ID) (store.Handle, error) {
	var m0 uint64
	if w.misses != nil {
		m0 = w.misses()
	}
	w.tr.begin(sGet)
	h, err := w.sp.Get(id)
	dur, _, nchild := w.tr.end(0)
	miss := nchild > 0
	if w.misses != nil {
		miss = w.misses() != m0
	}
	if miss {
		w.tr.agg.getMiss.add(dur)
	} else {
		w.tr.agg.getHit.add(dur)
	}
	return h, err
}

func (w *tracedSpace) Alloc(t page.Type) (page.ID, store.Handle, error) {
	w.tr.begin(sAlloc)
	defer w.tr.end(0)
	return w.sp.Alloc(t)
}

func (w *tracedSpace) Free(id page.ID) error {
	w.tr.begin(sFree)
	defer w.tr.end(0)
	return w.sp.Free(id)
}

func (w *tracedSpace) Root(slot int) page.ID {
	w.tr.begin(sRoot)
	defer w.tr.end(0)
	return w.sp.Root(slot)
}

func (w *tracedSpace) SetRoot(slot int, id page.ID) {
	w.tr.begin(sSetRoot)
	defer w.tr.end(0)
	w.sp.SetRoot(slot, id)
}

func (w *tracedSpace) Commit() error {
	start := w.tr.begin(sCommit)
	err := w.sp.Commit()
	dur, self, _ := w.tr.end(0)
	switch p := w.tr.pass; {
	case p.reads():
		w.tr.agg.commitRO.add(dur)
	case p == passWriter:
		// The server's vfs time is subtracted when the round ends,
		// once the server's spans are in.
		w.tr.agg.writerCommits = append(w.tr.agg.writerCommits, interval{start, start + dur})
	case p.writes() && w.misses == nil:
		w.tr.agg.commitWSelf.add(self)
	}
	return err
}

func (w *tracedSpace) DropCache() error {
	w.tr.begin(sDropCache)
	defer w.tr.end(0)
	return w.sp.DropCache()
}

func (w *tracedSpace) Abort() error {
	w.tr.begin(sAbort)
	defer w.tr.end(0)
	return w.sp.Abort()
}

func (w *tracedSpace) Close() error {
	w.tr.begin(sClose)
	defer w.tr.end(0)
	return w.sp.Close()
}

func (w *tracedSpace) CacheStats() (hits, misses, reads uint64) { return w.sp.CacheStats() }

func (w localSpace) Snapshot() (*store.SnapshotView, error) {
	return w.sp.(interface {
		Snapshot() (*store.SnapshotView, error)
	}).Snapshot()
}

func (w localSpace) CommitStats() store.CommitStats {
	return w.sp.(interface{ CommitStats() store.CommitStats }).CommitStats()
}

func (w remoteSpace) Prefetch(ids []page.ID) error {
	w.tr.begin(sPrefetch)
	defer w.tr.end(0)
	return w.sp.(objstore.Prefetcher).Prefetch(ids)
}

func (w remoteSpace) PrefetchAsync(ids []page.ID) func() error {
	w.tr.begin(sPrefetchAsync)
	wait := w.sp.(objstore.AsyncPrefetcher).PrefetchAsync(ids)
	w.tr.end(0)
	return func() error {
		w.tr.begin(sPrefetchWait)
		defer w.tr.end(0)
		return wait()
	}
}

func (w remoteSpace) CommitStats() (commits, conflicts uint64) {
	return w.sp.(interface{ CommitStats() (uint64, uint64) }).CommitStats()
}

// --- vfs.FS ---

// tracedFS spans every file call, naming the database file's calls
// "pager" and the log file's "wal" after the modules that issue them.
type tracedFS struct {
	fs  vfs.FS
	rec recorder
}

type tracedFile struct {
	f   vfs.File
	rec recorder
	// read, write, sync, trunc, size, close are this file's span names.
	names [6]spanName
}

func (t tracedFS) Open(name string) (vfs.File, error) {
	f, err := t.fs.Open(name)
	if err != nil {
		return nil, err
	}
	names := [6]spanName{sPagerRead, sPagerWrite, sPagerSync, sPagerTrunc, sPagerSize, sPagerClose}
	if strings.HasSuffix(name, ".wal") {
		names = [6]spanName{sWALRead, sWALWrite, sWALSync, sWALTrunc, sWALSize, sWALClose}
	}
	return &tracedFile{f: f, rec: t.rec, names: names}, nil
}

func (t *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	start := t.rec.begin(t.names[0])
	n, err := t.f.ReadAt(p, off)
	t.rec.finish(t.names[0], start, n)
	return n, err
}

func (t *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	start := t.rec.begin(t.names[1])
	n, err := t.f.WriteAt(p, off)
	t.rec.finish(t.names[1], start, n)
	return n, err
}

func (t *tracedFile) Sync() error {
	start := t.rec.begin(t.names[2])
	err := t.f.Sync()
	t.rec.finish(t.names[2], start, 0)
	return err
}

func (t *tracedFile) Truncate(size int64) error {
	start := t.rec.begin(t.names[3])
	err := t.f.Truncate(size)
	t.rec.finish(t.names[3], start, 0)
	return err
}

func (t *tracedFile) Size() (int64, error) {
	start := t.rec.begin(t.names[4])
	n, err := t.f.Size()
	t.rec.finish(t.names[4], start, 0)
	return n, err
}

func (t *tracedFile) Close() error {
	start := t.rec.begin(t.names[5])
	err := t.f.Close()
	t.rec.finish(t.names[5], start, 0)
	return err
}
