package objstore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/store"
)

// Reading objects. View and ViewBatch are the read path; Get is a
// copying wrapper over View. An inline record is lent to
// the callback straight from its pinned data page: no copy, no
// allocation. The slice aliases page memory and is valid only until the
// callback returns — it must not be retained, returned, stored or sent
// anywhere (the lifecycle analyzer enforces this for callers). An
// overflow record is assembled into a fresh buffer by the lockstep
// chain walk and lent the same way.

// Prefetcher is the optional bulk-fetch capability of a page Space. A
// Space backed by a page server implements it by requesting all listed
// pages in one framed round trip; Prefetch only warms the cache, so
// implementations may ignore pages that are already resident.
type Prefetcher interface {
	Prefetch(ids []page.ID) error
}

// AsyncPrefetcher is the optional asynchronous bulk-fetch capability
// of a page Space: PrefetchAsync starts warming the cache and returns
// immediately, so the fetch overlaps with the caller's computation.
// The returned wait function blocks until the fetch settles and
// reports its error; it must be called before the transaction commits
// or aborts.
type AsyncPrefetcher interface {
	PrefetchAsync(ids []page.ID) (wait func() error)
}

// View runs fn over oid's bytes while they are pinned (see the borrow
// rule above). hint, when non-nil, is the caller's remembered address
// for the object: a valid hint is tried first, which skips the object
// table walk, and is trusted only if the stub there is stamped with
// oid; otherwise the table is consulted. Either way *hint holds the
// record's current address by the time fn runs, so the caller can
// remember it.
func (s *Store) View(oid OID, hint *Addr, fn func(data []byte) error) error {
	var local Addr
	if hint == nil {
		hint = &local
	}
	items := [1]item{{oid: oid}}
	hints := [1]Addr{*hint}
	return s.view(items[:], hints[:], func(_ int, data []byte) error {
		*hint = hints[0]
		return fn(data)
	}, false)
}

// ViewBatch runs fn once for every listed object, fn(i, data) for
// oids[i], in an unspecified order. Records are visited grouped by data
// page, so every page is pinned once per batch however many objects it
// holds, and when the Space supports Prefetch all of a batch's pages
// are requested in bulk first. Overflow chains are walked in lockstep —
// one prefetch per chain generation — so spilled objects cost one
// round trip per chain hop for the whole batch, not per object.
//
// hints, when non-nil, must have one entry per OID; each is used and
// updated as View's hint.
func (s *Store) ViewBatch(oids []OID, hints []Addr, fn func(i int, data []byte) error) error {
	if len(oids) == 0 {
		return nil
	}
	items := make([]item, len(oids))
	for i, oid := range oids {
		items[i] = item{idx: i, oid: oid}
	}
	return s.view(items, hints, fn, true)
}

// Get returns a copy of the object's bytes.
func (s *Store) Get(oid OID) ([]byte, error) {
	var out []byte
	err := s.View(oid, nil, func(data []byte) error {
		out = append([]byte(nil), data...)
		return nil
	})
	return out, err
}

// item is one object to read: its index in the caller's list, its OID,
// where to look, and whether that address is only a hint.
type item struct {
	idx    int
	oid    OID
	at     Addr
	hinted bool
}

// view resolves every item's address — the caller's hint when it has
// one, the object table otherwise — reads the records, and retries the
// items whose hint did not check out through the table. batch wraps
// table-lookup failures with the item's index.
func (s *Store) view(items []item, hints []Addr, fn func(i int, data []byte) error, batch bool) error {
	for k := range items {
		it := &items[k]
		if hints != nil && hints[it.idx].valid() {
			it.at, it.hinted = hints[it.idx], true
			continue
		}
		if err := s.resolve(it, hints, batch); err != nil {
			return err
		}
	}
	missed, err := s.readItems(items, fn)
	if err != nil || len(missed) == 0 {
		return err
	}
	for k := range missed {
		if err := s.resolve(&missed[k], hints, batch); err != nil {
			return err
		}
	}
	_, err = s.readItems(missed, fn)
	return err
}

// resolve looks the item up in the object table and refreshes its hint.
func (s *Store) resolve(it *item, hints []Addr, batch bool) error {
	a, err := s.lookup(it.oid)
	if err != nil {
		if batch {
			return fmt.Errorf("objstore: batch item %d: %w", it.idx, err)
		}
		return err
	}
	it.at, it.hinted = a, false
	if hints != nil {
		hints[it.idx] = a
	}
	return nil
}

// readItems reads the items' records in address order, pinning each
// data page once. Inline records go to fn in place; overflow records
// are handed to the chain walk. Hinted items whose stub does not check
// out are returned as missed; an unhinted one is an error.
func (s *Store) readItems(items []item, fn func(i int, data []byte) error) (missed []item, err error) {
	if len(items) > 1 {
		slices.SortFunc(items, func(a, b item) int {
			if c := cmp.Compare(a.at.pg, b.at.pg); c != 0 {
				return c
			}
			return cmp.Compare(a.at.slot, b.at.slot)
		})
		if pf, ok := s.sp.(Prefetcher); ok {
			distinct := make([]page.ID, 0, len(items))
			for _, it := range items {
				if n := len(distinct); n == 0 || distinct[n-1] != it.at.pg {
					distinct = append(distinct, it.at.pg)
				}
			}
			if err := pf.Prefetch(distinct); err != nil {
				return nil, err
			}
		}
	}
	var chains []chain
	var h store.Handle
	var cur page.ID
	defer func() {
		if h != nil {
			h.Release()
		}
	}()
	for _, it := range items {
		if h == nil || it.at.pg != cur {
			if h != nil {
				h.Release()
				h = nil
			}
			next, err := s.sp.Get(it.at.pg)
			if err != nil {
				return nil, err
			}
			h, cur = next, it.at.pg
		}
		rec, other, ok := stubAt(h.Page(), it.at, it.oid)
		if !ok {
			if it.hinted {
				missed = append(missed, it)
				continue
			}
			return nil, stubErr(it.oid, it.at, other)
		}
		switch rec[0] {
		case flagInline:
			if err := fn(it.idx, rec[stubHeader:]); err != nil {
				return nil, err
			}
		case flagOverflow:
			total, first := overflowStub(rec)
			chains = append(chains, chain{idx: it.idx, next: first, total: total, buf: make([]byte, 0, total)})
		default:
			return nil, fmt.Errorf("objstore: corrupt record flag %d for oid %d", rec[0], it.oid)
		}
	}
	if h != nil {
		h.Release() // the chain walk pins its own pages
		h = nil
	}
	return missed, s.walkChains(chains, fn)
}

// chain is one overflow record being assembled: the caller's index,
// the next chain page to read, the length the stub promises, and the
// bytes so far.
type chain struct {
	idx   int
	next  page.ID
	total int
	buf   []byte
}

// walkChains assembles overflow records in lockstep: each generation
// reads the next page of every unfinished chain — prefetched in one
// bulk request when the Space supports it — and fn runs over each
// record as its chain completes.
func (s *Store) walkChains(chains []chain, fn func(i int, data []byte) error) error {
	pf, bulk := s.sp.(Prefetcher)
	for len(chains) > 0 {
		if bulk && len(chains) > 1 {
			gen := make([]page.ID, 0, len(chains))
			for _, c := range chains {
				gen = append(gen, c.next)
			}
			slices.Sort(gen)
			if err := pf.Prefetch(gen); err != nil {
				return err
			}
		}
		live := chains[:0]
		for _, c := range chains {
			h, err := s.sp.Get(c.next)
			if err != nil {
				return err
			}
			pl := h.Page().Payload()
			used := int(binary.LittleEndian.Uint16(pl[ovfUsedOff:]))
			c.buf = append(c.buf, pl[ovfDataOff:ovfDataOff+used]...)
			c.next = page.ID(binary.LittleEndian.Uint64(pl[ovfNextOff:]))
			h.Release()
			switch {
			case c.next != page.Invalid:
				live = append(live, c)
			case len(c.buf) != c.total:
				return fmt.Errorf("objstore: overflow chain length %d, stub says %d", len(c.buf), c.total)
			default:
				if err := fn(c.idx, c.buf); err != nil {
					return err
				}
			}
		}
		chains = live
	}
	return nil
}

// PrefetchOIDs starts warming the cache with every listed object's
// data page, without blocking on the fetch. hints, when non-nil, holds
// one remembered address per OID (as for ViewBatch); a valid hint
// stands in for the object-table walk, which is harmless if it is
// stale — the kick is advisory. It returns nil when the Space cannot
// fetch asynchronously (the caller simply proceeds to its synchronous
// reads). Only the objects' primary data pages are warmed — overflow
// chains reveal themselves one hop at a time and are left to the
// lockstep walk.
func (s *Store) PrefetchOIDs(oids []OID, hints []Addr) (wait func() error) {
	ap, ok := s.sp.(AsyncPrefetcher)
	if !ok || len(oids) == 0 {
		return nil
	}
	distinct := make([]page.ID, 0, len(oids))
	seen := make(map[page.ID]bool, len(oids))
	for i, oid := range oids {
		a := Addr{}
		if hints != nil {
			a = hints[i]
		}
		if !a.valid() {
			var err error
			if a, err = s.lookup(oid); err != nil {
				continue // advisory: the synchronous read will surface it
			}
		}
		if !seen[a.pg] {
			seen[a.pg] = true
			distinct = append(distinct, a.pg)
		}
	}
	if len(distinct) == 0 {
		return nil
	}
	return ap.PrefetchAsync(distinct)
}
