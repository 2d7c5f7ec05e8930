// Package buffer implements the page buffer pool.
//
// The pool caches page images in memory with LRU replacement. It is the
// component that produces the HyperModel benchmark's cold/warm
// distinction: a cold run starts with an empty pool (every access is a
// disk or server fetch), a warm run finds the working set resident.
//
// The pool is no-steal: dirty frames are never evicted, because the
// write-ahead log is redo-only and an early write-back of uncommitted
// data could not be undone after a crash. If every frame is dirty or
// pinned the pool grows past its nominal capacity; the store bounds
// this by checkpointing.
//
// Concurrency: the frame table is sharded so parallel readers do not
// serialize behind one mutex (small pools collapse to a single shard to
// keep exact global LRU order). Hit/miss/eviction counters and pin
// counts are atomic. Each frame carries two page images: the working
// image (Frame.Page), owned by the single writer, and an immutable
// committed snapshot published with an atomic pointer, which concurrent
// readers access without pinning the frame at all (see Snapshot).
//
// The resident hit path allocates nothing: the eviction list is
// intrusive (links live in the Frame), and every frame carries its own
// Handle, so pinning and unpinning a resident page only moves pointers.
// The pool also tracks its dirty frames as a set, so the commit path's
// DirtyFrames and MarkAllClean cost O(dirty), not O(resident), and
// both run in page-ID order — which makes the eviction order after a
// commit, and hence every later hit and miss, repeat exactly for a
// given operation sequence.
package buffer

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"hypermodel/internal/storage/page"
)

// Frame is a cached page together with its bookkeeping.
type Frame struct {
	ID page.ID
	// Page is the working image. It belongs to the single writer: only
	// one goroutine at a time may mutate it (and must call MarkDirty
	// before Release). Concurrent readers never touch it — they read
	// the committed snapshot instead.
	Page  *page.Page
	snap  atomic.Pointer[page.Page] // committed copy; always distinct from Page
	pins  atomic.Int32
	dirty atomic.Bool
	// prev and next link the frame into its shard's eviction list
	// (prev toward the MRU end). Only clean, unpinned frames are
	// listed; everything else is ineligible, which keeps eviction O(1)
	// even when the pool is full of dirty pages (bulk loads under the
	// no-steal policy). listed and resident are guarded by the shard
	// mutex; resident clears when the frame leaves the frame table
	// (eviction, Forget, Drop, DropClean).
	prev, next *Frame
	listed     bool
	resident   bool

	pool *Pool
	h    Handle
}

// Handle is a frame's pinned-reference view: the page image, dirty
// marking and unpinning, in the shape of the store's Handle interface.
// Every frame embeds its own Handle, so handing one out allocates
// nothing; each pin is still released exactly once through it.
type Handle struct{ f *Frame }

// Handle returns the frame's handle. The caller must hold a pin, which
// Release on the handle drops.
func (f *Frame) Handle() *Handle { return &f.h }

// Page returns the frame's working image.
func (h *Handle) Page() *page.Page { return h.f.Page }

// MarkDirty flags the frame as modified (see Pool.MarkDirty).
func (h *Handle) MarkDirty() { h.f.pool.MarkDirty(h.f) }

// Release unpins the frame (see Pool.Release).
func (h *Handle) Release() { h.f.pool.Release(h.f) }

// Dirty reports whether the frame has modifications that are not yet in
// the main database file.
func (f *Frame) Dirty() bool { return f.dirty.Load() }

// Snapshot returns the frame's committed page image. The image is
// immutable — commits publish a fresh copy rather than mutating it — so
// the caller may read it without holding any pin or lock, even after
// the frame is evicted.
func (f *Frame) Snapshot() *page.Page { return f.snap.Load() }

// InstallSnapshot publishes a copy of the working image as the new
// committed snapshot. Only the committing writer may call it, at a
// point where the working image is quiescent.
func (f *Frame) InstallSnapshot() {
	cp := *f.Page
	f.snap.Store(&cp)
}

// Stats are cumulative buffer pool counters.
type Stats struct {
	Hits      uint64 // Get found the page resident
	Misses    uint64 // Get did not find the page
	Evictions uint64 // clean frames evicted to make room
}

// shardCount is the number of frame-table shards for full-size pools.
// It is a power of two so shard selection is a mask.
const shardCount = 16

// shard is one slice of the frame table with its own lock and LRU.
type shard struct {
	mu     sync.Mutex
	cap    int
	frames map[page.ID]*Frame
	// mru and lru are the ends of the intrusive eviction list of
	// evictable (clean, unpinned) frames.
	mru, lru *Frame
}

// Pool is an LRU page cache.
type Pool struct {
	shards []shard
	mask   uint64
	cap    int

	// dirty is the set of resident frames flagged dirty. dirtyMu nests
	// inside a shard mutex (MarkDirty, Forget) and is never held while
	// taking one.
	dirtyMu sync.Mutex
	dirty   map[page.ID]*Frame

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// New returns a pool that aims to hold at most capacity pages.
// Capacity must be at least 1. Pools smaller than 8 pages per shard use
// a single shard, which preserves exact global LRU order for the tiny
// pools the tests and cache-sweep experiments build.
func New(capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	n := shardCount
	if capacity < 8*shardCount {
		n = 1
	}
	p := &Pool{shards: make([]shard, n), mask: uint64(n - 1), cap: capacity, dirty: make(map[page.ID]*Frame)}
	for i := range p.shards {
		c := capacity / n
		if i < capacity%n {
			c++
		}
		p.shards[i] = shard{cap: c, frames: make(map[page.ID]*Frame, c)}
	}
	return p
}

func (p *Pool) shardFor(id page.ID) *shard {
	return &p.shards[uint64(id)&p.mask]
}

// Get returns the resident frame for id, pinned, or nil if the page is
// not cached.
func (p *Pool) Get(id page.ID) *Frame {
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.frames[id]
	if !ok {
		p.misses.Add(1)
		return nil
	}
	p.hits.Add(1)
	sh.pinLocked(f)
	return f
}

// Snapshot returns the committed image of a resident page, or nil on a
// miss. The image is immutable, so the frame is not pinned: the caller
// may read the returned page for as long as it likes regardless of what
// happens to the frame. This is the concurrent readers' fast path.
func (p *Pool) Snapshot(id page.ID) *page.Page {
	sh := p.shardFor(id)
	sh.mu.Lock()
	f, ok := sh.frames[id]
	sh.mu.Unlock()
	if !ok {
		p.misses.Add(1)
		return nil
	}
	p.hits.Add(1)
	return f.Snapshot()
}

// Insert adds a page image (typically just read from disk) to the pool
// and returns its frame, pinned. Inserting a page that is already
// resident is a programming error and panics; racing readers use
// GetOrInsert instead.
func (p *Pool) Insert(id page.ID, img *page.Page) *Frame {
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.frames[id]; ok {
		panic("buffer: Insert of already-resident page")
	}
	return p.insertLocked(sh, id, img)
}

// GetOrInsert returns the resident frame for id, pinned, inserting img
// as its image if the page is not cached. It reports whether img was
// installed. This resolves the double-miss race: two readers can both
// miss, both read the page from disk, and both call GetOrInsert — the
// first installs, the second gets the first's frame. Neither hit nor
// miss counters move (the preceding Get or Snapshot already counted the
// miss).
func (p *Pool) GetOrInsert(id page.ID, img *page.Page) (*Frame, bool) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f, ok := sh.frames[id]; ok {
		sh.pinLocked(f)
		return f, false
	}
	return p.insertLocked(sh, id, img), true
}

func (p *Pool) insertLocked(sh *shard, id page.ID, img *page.Page) *Frame {
	p.makeRoomLocked(sh)
	f := &Frame{ID: id, Page: img, pool: p, resident: true}
	f.h.f = f
	f.pins.Store(1)
	cp := *img
	f.snap.Store(&cp)
	sh.frames[id] = f
	return f
}

func (sh *shard) pinLocked(f *Frame) {
	sh.unlistLocked(f)
	f.pins.Add(1)
}

func (sh *shard) unlistLocked(f *Frame) {
	if !f.listed {
		return
	}
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		sh.mru = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		sh.lru = f.prev
	}
	f.prev, f.next, f.listed = nil, nil, false
}

// relistLocked makes f evictable (at the MRU end) if it is clean,
// unpinned, and still resident. The residency check matters after
// Drop/DropClean/Forget: a handle released later must not re-enter the
// eviction list as a zombie, where its eventual eviction would delete
// whatever fresh frame now holds the same page ID.
func (sh *shard) relistLocked(f *Frame) {
	if f.listed || !f.resident || f.pins.Load() != 0 || f.dirty.Load() {
		return
	}
	f.next = sh.mru
	if sh.mru != nil {
		sh.mru.prev = f
	} else {
		sh.lru = f
	}
	sh.mru = f
	f.listed = true
}

// removeLocked takes f out of the frame table and the eviction list.
func (sh *shard) removeLocked(f *Frame) {
	sh.unlistLocked(f)
	f.resident = false
	delete(sh.frames, f.ID)
}

// Release unpins a frame previously returned by Get or Insert. When the
// pin count drops to zero the frame becomes eligible for eviction (once
// clean).
func (p *Pool) Release(f *Frame) {
	sh := p.shardFor(f.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f.pins.Load() <= 0 {
		panic("buffer: Release of unpinned frame")
	}
	f.pins.Add(-1)
	sh.relistLocked(f)
}

// makeRoomLocked evicts the least recently used evictable frames until
// the shard is under its capacity. With every frame dirty or pinned the
// eviction list is empty and the shard grows instead (no-steal).
func (p *Pool) makeRoomLocked(sh *shard) {
	for len(sh.frames) >= sh.cap {
		f := sh.lru
		if f == nil {
			return // everything dirty or pinned: allow growth
		}
		sh.removeLocked(f)
		p.evictions.Add(1)
	}
}

// MarkDirty flags a (pinned) frame as modified, removing it from the
// eviction candidates until the next commit cleans it.
func (p *Pool) MarkDirty(f *Frame) {
	if f.dirty.Load() {
		// Already unlisted and in the dirty set (dirty flags are set
		// and cleared only by the single writer).
		return
	}
	sh := p.shardFor(f.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f.dirty.Store(true)
	sh.unlistLocked(f)
	if f.resident {
		p.dirtyMu.Lock()
		p.dirty[f.ID] = f
		p.dirtyMu.Unlock()
	}
}

// DirtyFrames returns the frames currently flagged dirty, sorted by
// page ID. The order matters: the commit path logs and writes back the
// dirty set in this order, so a given workload produces byte-identical
// WAL and file images on every machine — which the seeded crash-point
// sweeps rely on (map iteration order would reshuffle every run). The
// frames are not pinned; the caller must hold the store's writer lock
// while using them. The cost is O(dirty): a read-only commit pays
// nothing for a large resident set.
func (p *Pool) DirtyFrames() []*Frame {
	return p.takeDirty(false)
}

// takeDirty lists the dirty set in page-ID order, emptying it when
// reset is set.
func (p *Pool) takeDirty(reset bool) []*Frame {
	p.dirtyMu.Lock()
	if len(p.dirty) == 0 {
		p.dirtyMu.Unlock()
		return nil
	}
	out := make([]*Frame, 0, len(p.dirty))
	for _, f := range p.dirty {
		out = append(out, f)
	}
	if reset {
		clear(p.dirty)
	}
	p.dirtyMu.Unlock()
	slices.SortFunc(out, func(a, b *Frame) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// DirtyCount reports how many frames are flagged dirty.
func (p *Pool) DirtyCount() int {
	p.dirtyMu.Lock()
	defer p.dirtyMu.Unlock()
	return len(p.dirty)
}

// MarkAllClean clears the dirty flag on every dirty frame (after the
// images have been made durable via the WAL or the main file),
// returning the unpinned ones to the eviction candidates in page-ID
// order, so the eviction order that follows is the same on every run.
func (p *Pool) MarkAllClean() {
	for _, f := range p.takeDirty(true) {
		sh := p.shardFor(f.ID)
		sh.mu.Lock()
		f.dirty.Store(false)
		sh.relistLocked(f)
		sh.mu.Unlock()
	}
}

// Forget removes a page from the pool regardless of state. Used when a
// page is freed.
func (p *Pool) Forget(id page.ID) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.frames[id]
	if !ok {
		return
	}
	sh.removeLocked(f)
	p.dirtyMu.Lock()
	delete(p.dirty, id)
	p.dirtyMu.Unlock()
}

// Drop discards every frame. It is the in-process equivalent of closing
// and reopening the database: the next access to any page is cold.
// Dropping while dirty frames exist loses their modifications, so the
// store only calls this after a commit or checkpoint.
func (p *Pool) Drop() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, f := range sh.frames {
			sh.unlistLocked(f)
			f.resident = false
		}
		sh.frames = make(map[page.ID]*Frame, sh.cap)
		sh.mu.Unlock()
	}
	p.dirtyMu.Lock()
	clear(p.dirty)
	p.dirtyMu.Unlock()
}

// DropClean discards every clean, unpinned frame. This is the remote
// client's reconnect invalidation: pages fetched over a dead session
// may be stale by the time the connection is back, but dirty frames
// exist nowhere else (no-steal) and pinned frames are still in use by
// a caller, so both stay resident.
func (p *Pool) DropClean() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, f := range sh.frames {
			if !f.dirty.Load() && f.pins.Load() == 0 {
				sh.removeLocked(f)
			}
		}
		sh.mu.Unlock()
	}
}

// ResidentIDs lists the pages currently in the pool, in unspecified
// order.
func (p *Pool) ResidentIDs() []page.ID {
	var out []page.ID
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for id := range sh.frames {
			out = append(out, id)
		}
		sh.mu.Unlock()
	}
	return out
}

// Len reports the number of resident pages.
func (p *Pool) Len() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n += len(sh.frames)
		sh.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the cumulative counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Evictions: p.evictions.Load(),
	}
}
