package oodb

import (
	"hypermodel/internal/hyper"
	"hypermodel/internal/objstore"
)

var _ hyper.FrontierPrefetcher = (*DB)(nil)

// Batched reads (hyper.BatchReader): the object store's ViewBatch
// visits a frontier's objects grouped by data page, so each page is
// pinned once per batch and every object is read in place — and over
// the page server, all of a frontier's missing pages arrive in one
// framed round trip instead of one per object.

// viewBatch runs fn over every listed node's object, fn(i, v) for
// ids[i], in an unspecified order, learning the sections in what. The
// cached address hints go in and the addresses actually read come back
// into the cache.
func (d *DB) viewBatch(ids []hyper.NodeID, what learn, fn func(i int, v objView) error) error {
	oids := make([]objstore.OID, len(ids))
	hints := make([]objstore.Addr, len(ids))
	for i, id := range ids {
		e, err := d.entryOf(id)
		if err != nil {
			return &hyper.BatchError{Index: i, Err: err}
		}
		oids[i], hints[i] = e.oid, e.addr
	}
	return d.objs.ViewBatch(oids, hints, func(i int, data []byte) error {
		v, err := parseView(data)
		if err != nil {
			return &hyper.BatchError{Index: i, Err: err}
		}
		d.noteView(oids[i], hints[i], &v, what)
		return fn(i, v)
	})
}

// PrefetchFrontier (hyper.FrontierPrefetcher) starts warming the page
// cache with the listed nodes' objects, without blocking on the fetch.
// Over the page-server client the next BFS frontier's opGetPages round
// trip runs while the traversal computes on the current level. The
// kick is advisory: nodes whose OIDs cannot be resolved are skipped,
// and the returned wait function's error may be ignored — the
// synchronous batch read that follows re-fetches and surfaces any real
// failure.
func (d *DB) PrefetchFrontier(ids []hyper.NodeID) (wait func() error) {
	oids := make([]objstore.OID, 0, len(ids))
	hints := make([]objstore.Addr, 0, len(ids))
	for _, id := range ids {
		if e, err := d.entryOf(id); err == nil {
			oids = append(oids, e.oid)
			hints = append(hints, e.addr)
		}
	}
	return d.objs.PrefetchOIDs(oids, hints)
}

// NodesBatch returns the attributes of each listed node.
func (d *DB) NodesBatch(ids []hyper.NodeID) ([]hyper.Node, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	out := make([]hyper.Node, len(ids))
	err := d.viewBatch(ids, 0, func(i int, v objView) error {
		out[i] = v.node()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// HundredBatch returns the hundred attribute of each listed node.
func (d *DB) HundredBatch(ids []hyper.NodeID) ([]int32, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	out := make([]int32, len(ids))
	err := d.viewBatch(ids, 0, func(i int, v objView) error {
		out[i] = v.hundred()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ChildrenBatch returns each node's ordered children.
func (d *DB) ChildrenBatch(ids []hyper.NodeID) ([][]hyper.NodeID, error) {
	return d.refIDsBatch(ids, secChildren)
}

// PartsBatch returns each node's M-N parts.
func (d *DB) PartsBatch(ids []hyper.NodeID) ([][]hyper.NodeID, error) {
	return d.refIDsBatch(ids, secParts)
}

// refIDsBatch returns one reference section of each listed node.
func (d *DB) refIDsBatch(ids []hyper.NodeID, sec int) ([][]hyper.NodeID, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	out := make([][]hyper.NodeID, len(ids))
	err := d.viewBatch(ids, learnSec(sec), func(i int, v objView) error {
		out[i] = v.refs(sec).ids()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RefsToBatch returns each node's outgoing association edges.
func (d *DB) RefsToBatch(ids []hyper.NodeID) ([][]hyper.Edge, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	out := make([][]hyper.Edge, len(ids))
	err := d.viewBatch(ids, learnSec(secRefsTo), func(i int, v objView) error {
		out[i] = edgesFrom(ids[i], v.edges(secRefsTo), secRefsTo)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
