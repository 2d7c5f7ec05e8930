package oodb

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"hypermodel/internal/btree"
	"hypermodel/internal/hyper"
	"hypermodel/internal/objstore"
	"hypermodel/internal/remote"
	"hypermodel/internal/storage/store"
	"hypermodel/internal/storage/vfs"
)

// TestChildrenBatchAllocationBudget: a warm batch of children reads
// each object in place, so it allocates one children slice per node
// plus a constant per batch (OIDs, hints, the read order, the result).
func TestChildrenBatchAllocationBudget(t *testing.T) {
	st, err := store.Open("db", &store.Options{FS: vfs.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(st, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	lay, _, err := hyper.Generate(db, hyper.GenConfig{LeafLevel: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	first, last := lay.LevelIDs(2)
	var ids []hyper.NodeID
	for id := first; id <= last; id++ {
		ids = append(ids, id)
	}
	if _, err := db.ChildrenBatch(ids); err != nil { // warm the pool and the hints
		t.Fatal(err)
	}
	const perBatch = 4
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := db.ChildrenBatch(ids); err != nil {
			t.Fatal(err)
		}
	})
	if budget := float64(len(ids) + perBatch); allocs > budget {
		t.Fatalf("warm ChildrenBatch of %d nodes made %v allocations, budget %v", len(ids), allocs, budget)
	}
}

// relocationScenario drives the writer through the sequence that makes
// a remembered address lie: text node x is read where it was created
// (slot 0 of a fresh data page), grows until it relocates, its old page
// empties and is freed, and a blob whose bytes forge x's old encoding
// is placed into the recycled page — at exactly x's old address.
type relocationScenario struct {
	x       hyper.Node
	oldText string
	newText string
	forged  []byte
}

func newRelocationScenario() *relocationScenario {
	x := hyper.Node{ID: 7, Kind: hyper.KindText, Ten: 3, Hundred: 42, Thousand: 420, Million: 4200}
	old := "the text before relocation"
	return &relocationScenario{
		x:       x,
		oldText: old,
		newText: strings.Repeat("grown ", 500),
		forged:  encodeObject(&object{node: x, text: []byte(old)}),
	}
}

// create places x alone at the start of a fresh page with one blob
// beside it, then moves the fill cursor to another page.
func (sc *relocationScenario) create(t *testing.T, w *DB) {
	t.Helper()
	steps := []error{
		w.PutBlob("pad0", bytes.Repeat([]byte("0"), 3000)),
		w.CreateTextNode(sc.x, sc.oldText, 0),
		w.PutBlob("b1", bytes.Repeat([]byte("1"), 1500)),
		w.PutBlob("pad1", bytes.Repeat([]byte("2"), 3000)),
		w.Commit(),
	}
	for i, err := range steps {
		if err != nil {
			t.Fatalf("create step %d: %v", i, err)
		}
	}
}

// relocate grows x off its page, frees the page, and recycles x's old
// address for the forged blob. It checks that the address was reused.
func (sc *relocationScenario) relocate(t *testing.T, w *DB) {
	t.Helper()
	oldAddr := objAddr(t, w, sc.x.ID)
	// The page server frees pages at commit, so the freed page is
	// recycled only by the next transaction.
	steps := []error{
		w.SetText(sc.x.ID, sc.newText),
		w.DeleteBlob("b1"),
		w.Commit(),
		w.PutBlob("forged", sc.forged),
		w.Commit(),
	}
	for i, err := range steps {
		if err != nil {
			t.Fatalf("relocate step %d: %v", i, err)
		}
	}
	if objAddr(t, w, sc.x.ID) == oldAddr {
		t.Fatal("setup: x did not relocate")
	}
	if got := blobAddr(t, w, "forged"); got != oldAddr {
		t.Fatalf("setup: forged blob at %v, want x's old address %v", got, oldAddr)
	}
}

// objAddr returns the address the object table holds for node id.
func objAddr(t *testing.T, d *DB, id hyper.NodeID) objstore.Addr {
	t.Helper()
	oid, err := d.oidOf(id)
	if err != nil {
		t.Fatal(err)
	}
	return oidAddr(t, d, oid)
}

func blobAddr(t *testing.T, d *DB, key string) objstore.Addr {
	t.Helper()
	v, ok, err := d.blobs.Get(blobKey(key))
	if err != nil || !ok {
		t.Fatalf("blob %q: %v %v", key, ok, err)
	}
	return oidAddr(t, d, objstore.OID(btree.U64FromKey(v)))
}

func oidAddr(t *testing.T, d *DB, oid objstore.OID) objstore.Addr {
	t.Helper()
	var a objstore.Addr
	if err := d.objs.View(oid, &a, func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	return a
}

// check reads x through r and requires x's own bytes: the text given,
// and x's attributes — never the forged blob's.
func (sc *relocationScenario) check(t *testing.T, r *DB, wantText string) {
	t.Helper()
	text, err := r.Text(sc.x.ID)
	if err != nil {
		t.Fatal(err)
	}
	if text != wantText {
		t.Fatalf("Text(x) = %.30q..., want %.30q...", text, wantText)
	}
	n, err := r.Node(sc.x.ID)
	if err != nil || n != sc.x {
		t.Fatalf("Node(x) = %+v %v", n, err)
	}
}

// TestStaleHintOverReadView: an oodb DB over a ReadView remembers x's
// address; the parent writer relocates x and recycles the address for
// a blob that forges x's old bytes. The reader must fall back to the
// object table (the stamp names the blob, not x) and read x's new
// record.
func TestStaleHintOverReadView(t *testing.T) {
	st, err := store.Open("db", &store.Options{FS: vfs.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(st, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sc := newRelocationScenario()
	sc.create(t, w)

	r, err := New(st.ReadView(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc.check(t, r, sc.oldText)
	hinted := r.oidCache[sc.x.ID].addr

	sc.relocate(t, w)
	if r.oidCache[sc.x.ID].addr != hinted {
		t.Fatal("the reader's hint changed before it read again")
	}
	sc.check(t, r, sc.newText)
	if got := r.oidCache[sc.x.ID].addr; got != objAddr(t, w, sc.x.ID) {
		t.Fatalf("hint not refreshed: %v", got)
	}
}

// TestStaleHintAcrossSessions: the same over two page-server sessions.
// The reader keeps its hint while its cached pages are dropped (as a
// reconnect drops them), so its next read fetches the recycled page;
// the stamp check sends it back through the object table.
func TestStaleHintAcrossSessions(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "server.db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(st)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Close()
		st.Close()
	}()
	dial := func() (*remote.Client, *DB) {
		c, err := remote.Dial(addr.String(), remote.ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		db, err := New(c, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return c, db
	}
	_, w := dial()
	sc := newRelocationScenario()
	sc.create(t, w)

	rc, r := dial()
	sc.check(t, r, sc.oldText)
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}

	sc.relocate(t, w)
	// Still on its cached pages, the reader sees x as it was.
	sc.check(t, r, sc.oldText)
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := rc.DropCache(); err != nil {
		t.Fatal(err)
	}
	sc.check(t, r, sc.newText)
	if err := r.Commit(); err != nil && !errors.Is(err, remote.ErrConflict) {
		t.Fatal(err)
	}
}
