package buffer

import (
	"testing"

	"hypermodel/internal/storage/page"
)

func TestGetMissThenInsertHit(t *testing.T) {
	p := New(4)
	if f := p.Get(1); f != nil {
		t.Fatal("hit on empty pool")
	}
	f := p.Insert(1, page.New(page.TypeSlotted))
	p.Release(f)
	if f := p.Get(1); f == nil {
		t.Fatal("miss after insert")
	} else {
		p.Release(f)
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	p := New(2)
	for i := 1; i <= 3; i++ {
		f := p.Insert(page.ID(i), page.New(page.TypeSlotted))
		p.Release(f)
	}
	// Page 1 was least recently used and clean: it must be gone.
	if f := p.Get(1); f != nil {
		t.Fatal("LRU page not evicted")
	}
	if f := p.Get(3); f == nil {
		t.Fatal("most recent page evicted")
	} else {
		p.Release(f)
	}
	if p.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestPinnedPagesSurviveEviction(t *testing.T) {
	p := New(1)
	f1 := p.Insert(1, page.New(page.TypeSlotted)) // stays pinned
	f2 := p.Insert(2, page.New(page.TypeSlotted))
	p.Release(f2)
	_ = f1
	if f := p.Get(1); f == nil {
		t.Fatal("pinned page evicted")
	} else {
		p.Release(f)
	}
}

func TestDirtyPagesNotEvicted(t *testing.T) {
	p := New(1)
	f1 := p.Insert(1, page.New(page.TypeSlotted))
	p.MarkDirty(f1)
	p.Release(f1)
	f2 := p.Insert(2, page.New(page.TypeSlotted))
	p.Release(f2)
	if f := p.Get(1); f == nil {
		t.Fatal("dirty page evicted")
	} else {
		p.Release(f)
	}
}

func TestDirtyFramesAndMarkAllClean(t *testing.T) {
	p := New(8)
	for i := 1; i <= 3; i++ {
		f := p.Insert(page.ID(i), page.New(page.TypeSlotted))
		if i != 2 {
			p.MarkDirty(f)
		}
		p.Release(f)
	}
	if n := len(p.DirtyFrames()); n != 2 {
		t.Fatalf("dirty frames = %d, want 2", n)
	}
	p.MarkAllClean()
	if n := len(p.DirtyFrames()); n != 0 {
		t.Fatalf("dirty frames after clean = %d", n)
	}
}

func TestDropMakesPoolCold(t *testing.T) {
	p := New(8)
	f := p.Insert(1, page.New(page.TypeSlotted))
	p.Release(f)
	p.Drop()
	if p.Len() != 0 {
		t.Fatal("pool not empty after Drop")
	}
	if f := p.Get(1); f != nil {
		t.Fatal("hit after Drop")
	}
}

func TestForget(t *testing.T) {
	p := New(8)
	f := p.Insert(1, page.New(page.TypeSlotted))
	p.MarkDirty(f)
	p.Release(f)
	p.Forget(1)
	if f := p.Get(1); f != nil {
		t.Fatal("forgotten page still resident")
	}
	if n := len(p.DirtyFrames()); n != 0 {
		t.Fatal("forgotten page still dirty-listed")
	}
}

func TestReleaseUnpinnedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	p := New(2)
	f := p.Insert(1, page.New(page.TypeSlotted))
	p.Release(f)
	p.Release(f)
}

func TestDoubleInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	p := New(2)
	p.Insert(1, page.New(page.TypeSlotted))
	p.Insert(1, page.New(page.TypeSlotted))
}

func TestRepinRemovesFromLRU(t *testing.T) {
	p := New(2)
	f := p.Insert(1, page.New(page.TypeSlotted))
	p.Release(f)
	g := p.Get(1) // repin
	// Fill past capacity; page 1 is pinned so page 2 must be the victim.
	h2 := p.Insert(2, page.New(page.TypeSlotted))
	p.Release(h2)
	h3 := p.Insert(3, page.New(page.TypeSlotted))
	p.Release(h3)
	if got := p.Get(1); got == nil {
		t.Fatal("pinned page lost")
	} else {
		p.Release(got)
	}
	p.Release(g)
}

func TestDropCleanKeepsDirtyAndPinned(t *testing.T) {
	p := New(8)
	clean := p.Insert(1, page.New(page.TypeSlotted))
	p.Release(clean)
	dirty := p.Insert(2, page.New(page.TypeSlotted))
	p.MarkDirty(dirty)
	p.Release(dirty)
	pinned := p.Insert(3, page.New(page.TypeSlotted))

	p.DropClean()

	if got := p.Get(1); got != nil {
		t.Fatal("clean unpinned frame survived DropClean")
	}
	if got := p.Get(2); got == nil {
		t.Fatal("dirty frame lost by DropClean (no-steal violated)")
	} else {
		p.Release(got)
	}
	if got := p.Get(3); got == nil {
		t.Fatal("pinned frame lost by DropClean")
	} else {
		p.Release(got)
	}
	p.Release(pinned)
}

// TestZombieFrameNotRelisted: a handle released after its page was
// dropped from the pool must not re-enter the eviction list — its
// eviction would delete whatever fresh frame now holds the same ID.
func TestZombieFrameNotRelisted(t *testing.T) {
	p := New(2)
	old := p.Insert(1, page.New(page.TypeSlotted))
	p.Drop() // page 1 forgotten while still pinned

	fresh := p.Insert(1, page.New(page.TypeSlotted))
	p.Release(fresh)
	p.Release(old) // zombie release: must NOT list old for eviction

	// Force evictions; if the zombie was listed, its eviction deletes
	// the fresh frame's map entry.
	a := p.Insert(2, page.New(page.TypeSlotted))
	p.Release(a)
	b := p.Insert(3, page.New(page.TypeSlotted))
	p.Release(b)

	// The fresh frame for page 1 was the LRU victim or survived — but
	// the pool must stay coherent: every Get returns the frame that is
	// actually in the map, and re-inserting after a miss must not panic.
	if f := p.Get(1); f != nil {
		p.Release(f)
	} else {
		f = p.Insert(1, page.New(page.TypeSlotted))
		p.Release(f)
	}
}

func TestResidentIDs(t *testing.T) {
	p := New(4)
	for id := 1; id <= 3; id++ {
		f := p.Insert(page.ID(id), page.New(page.TypeSlotted))
		p.Release(f)
	}
	ids := p.ResidentIDs()
	if len(ids) != 3 {
		t.Fatalf("resident = %v, want 3 pages", ids)
	}
	seen := map[page.ID]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	if !seen[1] || !seen[2] || !seen[3] {
		t.Fatalf("resident = %v", ids)
	}
}

// evictionTrace runs a fixed sequence — fill the pool, dirty every
// frame, clean them in one MarkAllClean, then insert fresh pages — and
// returns the page each fresh insert evicted.
func evictionTrace(t *testing.T) []page.ID {
	t.Helper()
	const capacity = 16
	p := New(capacity)
	for id := page.ID(1); id <= capacity; id++ {
		f := p.Insert(id, page.New(page.TypeSlotted))
		p.MarkDirty(f)
		p.Release(f)
	}
	p.MarkAllClean()
	var evicted []page.ID
	for id := page.ID(capacity + 1); id <= 2*capacity; id++ {
		before := map[page.ID]bool{}
		for _, r := range p.ResidentIDs() {
			before[r] = true
		}
		p.Release(p.Insert(id, page.New(page.TypeSlotted)))
		for _, r := range p.ResidentIDs() {
			delete(before, r)
		}
		for r := range before {
			evicted = append(evicted, r)
		}
	}
	return evicted
}

// TestEvictionOrderRepeats: two identical operation sequences evict in
// the same order. MarkAllClean relists the cleaned frames in page-ID
// order, so the oldest-listed (first evicted) is the lowest page ID;
// relisting in map order made eviction — and every later hit and miss
// count — differ from run to run.
func TestEvictionOrderRepeats(t *testing.T) {
	a, b := evictionTrace(t), evictionTrace(t)
	if len(a) != 16 {
		t.Fatalf("evicted %d pages, want 16: %v", len(a), a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("eviction orders differ: %v vs %v", a, b)
		}
		if a[i] != page.ID(i+1) {
			t.Fatalf("eviction order %v, want page-ID order", a)
		}
	}
}

// TestDirtySetTracksForgetAndDrop: the dirty set follows the frames
// out of the pool, so a commit never writes back a forgotten page.
func TestDirtySetTracksForgetAndDrop(t *testing.T) {
	p := New(8)
	for id := page.ID(1); id <= 3; id++ {
		f := p.Insert(id, page.New(page.TypeSlotted))
		p.MarkDirty(f)
		p.Release(f)
	}
	p.Forget(2)
	got := p.DirtyFrames()
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 3 || p.DirtyCount() != 2 {
		t.Fatalf("dirty after Forget = %v", got)
	}
	// A zombie (dropped while pinned) marked dirty stays out of the set.
	z := p.Insert(4, page.New(page.TypeSlotted))
	p.Drop()
	p.MarkDirty(z)
	p.Release(z)
	if n := p.DirtyCount(); n != 0 {
		t.Fatalf("dirty after Drop = %d frames, want 0", n)
	}
}
