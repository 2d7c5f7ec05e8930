package store

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/pager"
	"hypermodel/internal/storage/vfs"
)

func openTemp(t *testing.T, opts *Options) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db")
	s, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, path
}

func TestFreshDatabaseInitializesRoots(t *testing.T) {
	s, _ := openTemp(t, nil)
	for i := 0; i < NumRoots; i++ {
		if got := s.Root(i); got != page.Invalid {
			t.Fatalf("root %d = %d, want Invalid", i, got)
		}
	}
}

func TestAllocCommitReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	s, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, h, err := s.Alloc(page.TypeSlotted)
	if err != nil {
		t.Fatal(err)
	}
	copy(h.Page().Payload(), "durable")
	h.MarkDirty()
	h.Release()
	s.SetRoot(3, id)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Root(3); got != id {
		t.Fatalf("root = %d, want %d", got, id)
	}
	h2, err := s2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if string(h2.Page().Payload()[:7]) != "durable" {
		t.Fatal("page contents lost across reopen")
	}
}

func TestFreeListReusesPages(t *testing.T) {
	s, _ := openTemp(t, nil)
	id1, h, err := s.Alloc(page.TypeSlotted)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	id2, h2, err := s.Alloc(page.TypeSlotted)
	if err != nil {
		t.Fatal(err)
	}
	h2.Release()
	if err := s.Free(id1); err != nil {
		t.Fatal(err)
	}
	id3, h3, err := s.Alloc(page.TypeBTree)
	if err != nil {
		t.Fatal(err)
	}
	defer h3.Release()
	if id3 != id1 {
		t.Fatalf("alloc after free returned %d, want reused %d", id3, id1)
	}
	if h3.Page().Type() != page.TypeBTree {
		t.Fatalf("reused page type = %s", h3.Page().Type())
	}
	_ = id2
}

func TestFreeReservedPageRejected(t *testing.T) {
	s, _ := openTemp(t, nil)
	if err := s.Free(0); err == nil {
		t.Fatal("freeing the meta page succeeded")
	}
	if err := s.Free(page.Invalid); err == nil {
		t.Fatal("freeing Invalid succeeded")
	}
}

func TestRecoveryRepairsTornWriteback(t *testing.T) {
	fs := vfs.NewMem()
	s, err := Open("db", &Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	id, h, err := s.Alloc(page.TypeSlotted)
	if err != nil {
		t.Fatal(err)
	}
	copy(h.Page().Payload(), "committed state")
	h.MarkDirty()
	h.Release()
	s.SetRoot(0, id)
	if err := s.Commit(); err != nil { // WAL synced, file written (unsynced)
		t.Fatal(err)
	}
	// Simulate a crash: no checkpoint, underlying files abandoned, and
	// the main-file write-back torn (corrupted page image on disk).
	s.CrashForTesting()
	corruptPage(t, fs, "db", id, 100, 50)

	s2, err := Open("db", &Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.Recovered() {
		t.Fatal("recovery did not run")
	}
	h2, err := s2.Get(id)
	if err != nil {
		t.Fatalf("committed page unreadable after recovery: %v", err)
	}
	defer h2.Release()
	if string(h2.Page().Payload()[:15]) != "committed state" {
		t.Fatal("recovery lost committed data")
	}
	if got := s2.Root(0); got != id {
		t.Fatalf("root lost after recovery: %d", got)
	}
}

func TestUncommittedWorkIsLostOnCrash(t *testing.T) {
	fs := vfs.NewMem()
	s, err := Open("db", &Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	id, h, err := s.Alloc(page.TypeSlotted)
	if err != nil {
		t.Fatal(err)
	}
	copy(h.Page().Payload(), "committed")
	h.MarkDirty()
	h.Release()
	s.SetRoot(0, id)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// Uncommitted mutation.
	h, err = s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	copy(h.Page().Payload(), "UNCOMMIT!")
	h.MarkDirty()
	h.Release()
	s.CrashForTesting()

	s2, err := Open("db", &Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	h2, err := s2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if string(h2.Page().Payload()[:9]) != "committed" {
		t.Fatalf("got %q, want the committed image", h2.Page().Payload()[:9])
	}
}

func TestDropCacheForcesColdReads(t *testing.T) {
	s, _ := openTemp(t, nil)
	id, h, err := s.Alloc(page.TypeSlotted)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// Warm access: no disk read.
	before := s.Stats().DiskReads
	h, err = s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if got := s.Stats().DiskReads; got != before {
		t.Fatalf("warm access read from disk (%d -> %d)", before, got)
	}
	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	h, err = s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if got := s.Stats().DiskReads; got != before+1 {
		t.Fatalf("cold access did not hit disk (%d -> %d)", before, got)
	}
}

func TestDropCacheRefusesDirty(t *testing.T) {
	s, _ := openTemp(t, nil)
	_, h, err := s.Alloc(page.TypeSlotted)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if err := s.DropCache(); err == nil {
		t.Fatal("DropCache with dirty pages succeeded")
	}
}

func TestGetReservedPageRejected(t *testing.T) {
	s, _ := openTemp(t, nil)
	if _, err := s.Get(0); err == nil {
		t.Fatal("Get(0) succeeded")
	}
	if _, err := s.Get(page.Invalid); err == nil {
		t.Fatal("Get(Invalid) succeeded")
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	fs := vfs.NewMem()
	junk := make([]byte, page.Size)
	binary.LittleEndian.PutUint32(junk[0:4], 0xDEAD)
	if err := fs.WriteFile("db", junk); err != nil {
		t.Fatal(err)
	}
	if _, err := Open("db", &Options{FS: fs}); err == nil {
		t.Fatal("opened a non-hypermodel file")
	}
}

// TestOpenReinitializesZeroMeta: a power cut during first-ever
// initialization can leave the file grown but page 0 all zero, with no
// committed WAL barrier. That state must reopen as a fresh database,
// not brick the file.
func TestOpenReinitializesZeroMeta(t *testing.T) {
	fs := vfs.NewMem()
	if err := fs.WriteFile("db", make([]byte, page.Size)); err != nil {
		t.Fatal(err)
	}
	s, err := Open("db", &Options{FS: fs})
	if err != nil {
		t.Fatalf("zero-meta file did not reinitialize: %v", err)
	}
	defer s.Close()
	if got := s.Root(0); got != page.Invalid {
		t.Fatalf("root = %d, want Invalid on fresh init", got)
	}
	if rep := s.Scrub(); !rep.Clean() {
		t.Fatalf("reinitialized store scrubs dirty:\n%s", rep)
	}
}

func TestCommitSequenceAdvances(t *testing.T) {
	s, _ := openTemp(t, nil)
	first := s.Stats().Commits
	_, h, err := s.Alloc(page.TypeSlotted)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Commits; got != first+1 {
		t.Fatalf("commit seq %d -> %d", first, got)
	}
	// Empty commit is a no-op.
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Commits; got != first+1 {
		t.Fatal("empty commit advanced the sequence")
	}
}

func TestAutoCheckpointBoundsWAL(t *testing.T) {
	s, _ := openTemp(t, &Options{CheckpointBytes: 3 * page.Size})
	for i := 0; i < 10; i++ {
		_, h, err := s.Alloc(page.TypeSlotted)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if size := s.WALSizeForTesting(); size > 6*page.Size {
		t.Fatalf("WAL grew unbounded: %d bytes", size)
	}
}

// TestWarmGetAllocatesNothing: pinning and unpinning a resident page
// is the hottest path in the system; it must not allocate (the handle
// is the frame's own, and the eviction list is intrusive).
func TestWarmGetAllocatesNothing(t *testing.T) {
	s, _ := openTemp(t, &Options{FS: vfs.NewMem()})
	id, h, err := s.Alloc(page.TypeSlotted)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		h, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	})
	if allocs != 0 {
		t.Fatalf("warm Get+Release made %v allocations, want 0", allocs)
	}
}

// TestOpenRejectsFormatV1: a file written before record stubs carried
// their OID (format version 1) must be refused with a clear, typed
// error rather than misread.
func TestOpenRejectsFormatV1(t *testing.T) {
	fs := vfs.NewMem()
	path := "v1.db"
	s, err := Open(path, &Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	pg, err := pager.OpenFS(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	var meta page.Page
	if err := pg.Read(0, &meta); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(meta.Payload()[metaVersionOff:], 1)
	if err := pg.Write(0, &meta); err != nil {
		t.Fatal(err)
	}
	if err := pg.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = Open(path, &Options{FS: fs})
	if !errors.Is(err, ErrFormatVersion) {
		t.Fatalf("open of a version 1 file: %v, want ErrFormatVersion", err)
	}
	if !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("error %q does not name the file's version", err)
	}
}
