package lifecycle

import (
	"hypermodel/internal/btree"
	"hypermodel/internal/objstore"
	"hypermodel/internal/storage/buffer"
)

// Frames: the handle carries the pin.

func goodFrameToHandle(p *buffer.Pool) *buffer.Handle {
	f := p.Get(10)
	if f == nil {
		return nil
	}
	return f.Handle()
}

// Borrowed page slices: flagged escapes.

var kept []byte

type box struct {
	b   []byte
	all [][]byte
}

func badBorrowGlobal(t *btree.Tree) {
	t.View(nil, func(v []byte) error {
		kept = v // want `borrowed page slice from Tree.View is stored into captured or global variable kept`
		return nil
	})
}

func badBorrowCaptured(s *objstore.Store) []byte {
	var out []byte
	s.View(1, nil, func(data []byte) error {
		tail := data[2:]
		out = tail // want `borrowed page slice from Store.View is stored into captured or global variable out`
		return nil
	})
	return out
}

func badBorrowField(s *objstore.Store, bx *box) {
	s.View(2, nil, func(data []byte) error {
		bx.b = data // want `borrowed page slice from Store.View is stored into a field`
		return nil
	})
}

func badBorrowElement(s *objstore.Store, out [][]byte) {
	s.ViewBatch(nil, nil, func(i int, data []byte) error {
		out[i] = data[:4] // want `borrowed page slice from Store.ViewBatch is stored into an element`
		return nil
	})
}

func badBorrowAppend(s *objstore.Store, bx *box) {
	s.ViewBatch(nil, nil, func(i int, data []byte) error {
		bx.all = append(bx.all, data) // want `borrowed page slice from Store.ViewBatch is kept by append as an element`
		return nil
	})
}

func badBorrowComposite(t *btree.Tree) *box {
	var got *box
	t.View(nil, func(v []byte) error {
		b := box{b: v}
		got = &b // want `borrowed page slice from Tree.View is stored into captured or global variable got`
		return nil
	})
	return got
}

func badBorrowSend(t *btree.Tree, ch chan []byte) {
	t.View(nil, func(v []byte) error {
		ch <- v // want `borrowed page slice from Tree.View is sent on a channel`
		return nil
	})
}

func badBorrowNestedReturn(t *btree.Tree) {
	t.View(nil, func(v []byte) error {
		get := func() []byte {
			return v // want `borrowed page slice from Tree.View is returned`
		}
		_ = get
		return nil
	})
}

type page []byte

func badBorrowConversion(s *objstore.Store, bx *box) {
	s.View(3, nil, func(data []byte) error {
		bx.b = page(data) // want `borrowed page slice from Store.View is stored into a field`
		return nil
	})
}

// Borrowed page slices: copies and loans are fine.

func goodBorrowCopy(s *objstore.Store) (out []byte, n int) {
	s.View(4, nil, func(data []byte) error {
		out = append([]byte(nil), data...)
		n = len(data)
		return nil
	})
	return out, n
}

func goodBorrowString(t *btree.Tree) (str string) {
	t.View(nil, func(v []byte) error {
		str = string(v[1:])
		return nil
	})
	return str
}

func goodBorrowLoan(s *objstore.Store, out []int) {
	s.ViewBatch(nil, nil, func(i int, data []byte) error {
		local := data[1:]
		out[i] = parse(local)
		return nil
	})
}

func goodBorrowByteRead(t *btree.Tree) (first byte) {
	t.View(nil, func(v []byte) error {
		first = v[0]
		return nil
	})
	return first
}

func goodUntrackedLender(t *btree.Tree) {
	t.Scan(nil, nil, func(k, v []byte) (bool, error) {
		kept = v // Scan is documented as lending too, but only View is tracked
		return true, nil
	})
}

func suppressedBorrow(t *btree.Tree) {
	t.View(nil, func(v []byte) error {
		kept = v //hyperlint:allow lifecycle -- fixture exercises the suppression path
		return nil
	})
}

func parse(b []byte) int { return len(b) }
