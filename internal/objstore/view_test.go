package objstore

import (
	"bytes"
	"errors"
	"testing"
)

func addrOf(t *testing.T, s *Store, oid OID) Addr {
	t.Helper()
	a, err := s.lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func viewCopy(t *testing.T, s *Store, oid OID, hint *Addr) []byte {
	t.Helper()
	var out []byte
	if err := s.View(oid, hint, func(data []byte) error {
		out = append([]byte(nil), data...)
		return nil
	}); err != nil {
		t.Fatalf("view oid %d: %v", oid, err)
	}
	return out
}

// TestViewInlineAllocatesNothing: a warm read of an inline record is
// lent straight from the pinned page, with or without an address hint.
func TestViewInlineAllocatesNothing(t *testing.T) {
	s, st := openStore(t, Options{})
	oid, err := s.Put([]byte("inline object body"), InvalidOID)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	var hint Addr
	n := 0
	fn := func(data []byte) error {
		n += len(data)
		return nil
	}
	if err := s.View(oid, &hint, fn); err != nil {
		t.Fatal(err)
	}
	if hint != addrOf(t, s, oid) {
		t.Fatalf("hint %v after view, want the record's address", hint)
	}
	for _, tc := range []struct {
		name string
		hint *Addr
	}{{"hinted", &hint}, {"table walk", nil}} {
		allocs := testing.AllocsPerRun(200, func() {
			if err := s.View(oid, tc.hint, fn); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s View made %v allocations, want 0", tc.name, allocs)
		}
	}
}

// fullPage places objects near anchor (clustering, no fill reserve)
// until one spills to another page, and returns the ones that stayed on
// anchor's page.
func fullPage(t *testing.T, s *Store, anchor OID, size int) []OID {
	t.Helper()
	pg := addrOf(t, s, anchor).pg
	var same []OID
	for i := 0; ; i++ {
		oid, err := s.Put(bytes.Repeat([]byte{byte(i)}, size), anchor)
		if err != nil {
			t.Fatal(err)
		}
		if addrOf(t, s, oid).pg != pg {
			return same
		}
		same = append(same, oid)
	}
}

// TestStaleHintFallsBack: a hint is trusted only when the stub it
// names is stamped with the requested OID. Relocation, slot reuse by a
// record whose bytes forge the old contents, a dead slot and a page
// that is no longer a data page all fall back to the object table and
// refresh the hint.
func TestStaleHintFallsBack(t *testing.T) {
	s, _ := openStore(t, Options{Clustering: true, FillFactor: 1})
	old := bytes.Repeat([]byte("a"), 100)
	a, err := s.Put(old, InvalidOID)
	if err != nil {
		t.Fatal(err)
	}
	neighbours := fullPage(t, s, a, 200)
	stale := addrOf(t, s, a)

	// Grow a until it cannot stay on its page.
	grown := bytes.Repeat([]byte("A"), 3000)
	if err := s.Update(a, grown); err != nil {
		t.Fatal(err)
	}
	if addrOf(t, s, a) == stale {
		t.Fatal("setup: the grown object did not relocate")
	}
	// A new record forging a's old bytes lands in a's old slot.
	forged, err := s.Put(old, neighbours[0])
	if err != nil {
		t.Fatal(err)
	}
	if addrOf(t, s, forged) != stale {
		t.Fatalf("setup: forged record at %v, want a's old slot %v", addrOf(t, s, forged), stale)
	}

	for _, tc := range []struct {
		name string
		hint Addr
	}{
		{"slot reused by another object", stale},
		{"dead slot", Addr{stale.pg, 999}},
		{"not a data page", Addr{s.table.Root(), 0}},
		{"another live object", addrOf(t, s, neighbours[1])},
	} {
		hint := tc.hint
		if got := viewCopy(t, s, a, &hint); !bytes.Equal(got, grown) {
			t.Errorf("%s: read %d bytes starting %q, want the relocated object", tc.name, len(got), got[:1])
		}
		if hint != addrOf(t, s, a) {
			t.Errorf("%s: hint %v not refreshed to %v", tc.name, hint, addrOf(t, s, a))
		}
	}
}

// TestTableEntryOnForeignStubIsCorruption: an object-table entry that
// lands on a stub stamped with another OID is reported as typed
// corruption by every path that follows the table, instead of handing
// back the other object's bytes.
func TestTableEntryOnForeignStubIsCorruption(t *testing.T) {
	s, _ := openStore(t, Options{})
	a, err := s.Put([]byte("object a"), InvalidOID)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Put([]byte("object b"), InvalidOID)
	if err != nil {
		t.Fatal(err)
	}
	bAddr := addrOf(t, s, b)
	if err := s.table.Put(oidKey(a), addrValue(bAddr)); err != nil {
		t.Fatal(err)
	}
	check := func(what string, err error) {
		t.Helper()
		var ce *ErrCorruptRecord
		if !errors.As(err, &ce) {
			t.Fatalf("%s: %v, want *ErrCorruptRecord", what, err)
		}
		if ce.OID != a || ce.Found != b || ce.Page != bAddr.pg || ce.Slot != bAddr.slot {
			t.Fatalf("%s: %+v", what, ce)
		}
	}
	_, err = s.Get(a)
	check("Get", err)
	check("ViewBatch", s.ViewBatch([]OID{b, a}, nil, func(int, []byte) error { return nil }))
	hint := Addr{}
	check("View", s.View(a, &hint, func([]byte) error { return nil }))
	check("Update", s.Update(a, []byte("x")))
	check("Delete", s.Delete(a))
	if got, err := s.Get(b); err != nil || string(got) != "object b" {
		t.Fatalf("the other object: %q %v", got, err)
	}
}

// TestViewBatchHints: a batch mixing valid, stale and absent hints,
// duplicates and overflow records reads exactly what Get reads and
// leaves every hint at the record's address.
func TestViewBatchHints(t *testing.T) {
	s, _ := openStore(t, Options{Clustering: true})
	var oids []OID
	want := map[OID][]byte{}
	for i := 0; i < 40; i++ {
		size := 50 + 13*i
		if i%9 == 0 {
			size = 9000 // overflow chain
		}
		data := bytes.Repeat([]byte{byte(i)}, size)
		near := InvalidOID
		if i > 0 {
			near = oids[i-1]
		}
		oid, err := s.Put(data, near)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
		want[oid] = data
	}
	batch := append(append([]OID(nil), oids...), oids[3], oids[9])
	hints := make([]Addr, len(batch))
	for i, oid := range batch {
		switch i % 3 {
		case 0:
			hints[i] = addrOf(t, s, oid)
		case 1:
			hints[i] = addrOf(t, s, batch[(i+1)%len(batch)]) // someone else's
		}
	}
	got := make([][]byte, len(batch))
	seen := 0
	if err := s.ViewBatch(batch, hints, func(i int, data []byte) error {
		got[i] = append([]byte(nil), data...)
		seen++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != len(batch) {
		t.Fatalf("callback ran %d times for %d items", seen, len(batch))
	}
	for i, oid := range batch {
		if !bytes.Equal(got[i], want[oid]) {
			t.Fatalf("item %d (oid %d): %d bytes, want %d", i, oid, len(got[i]), len(want[oid]))
		}
		if hints[i] != addrOf(t, s, oid) {
			t.Fatalf("item %d: hint %v, want %v", i, hints[i], addrOf(t, s, oid))
		}
	}
}
