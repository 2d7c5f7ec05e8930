package oodb

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"hypermodel/internal/hyper"
)

// FuzzDecodeObject feeds arbitrary bytes to the object decoder: it
// must reject or accept without panicking, and anything it accepts
// must re-encode to the same bytes (canonical encoding).
func FuzzDecodeObject(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeObject(&object{node: hyper.Node{ID: 1}}))
	f.Add(encodeObject(&object{
		node:     hyper.Node{ID: 7, Kind: hyper.KindText, Hundred: 50},
		children: []ref{{1, 2}},
		refsTo:   []edgeRef{{3, 4, 5, 6}},
		text:     []byte("version1"),
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := decodeObject(data)
		if err != nil {
			return
		}
		re := encodeObject(o)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted object is not canonical: %x -> %x", data, re)
		}
	})
}

// FuzzObjectView checks the in-place view against an independent
// sequential decoder of the same format: both accept exactly the same
// inputs, every view accessor returns the field the reference decoded,
// and decodeObject (the view plus materialization) agrees too.
func FuzzObjectView(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{objVersion})
	f.Add(encodeObject(&object{node: hyper.Node{ID: 1}}))
	f.Add(encodeObject(&object{
		node:      hyper.Node{ID: 9, Kind: hyper.KindForm, Ten: 1, Hundred: 2, Thousand: 3, Million: 4},
		parentOID: 5, parentID: 6,
		children: []ref{{1, 2}, {3, 4}},
		parts:    []ref{{5, 6}},
		partOf:   []ref{{7, 8}},
		refsTo:   []edgeRef{{3, 4, 5, 6}},
		refsFrom: []edgeRef{{7, 8, -1, -2}, {9, 10, 11, 12}},
		text:     []byte("t"),
		form:     []byte{4, 0, 1, 0, 0xf0},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		exp, rerr := referenceDecode(data)
		v, verr := parseView(data)
		o, derr := decodeObject(data)
		if (rerr == nil) != (verr == nil) || (rerr == nil) != (derr == nil) {
			t.Fatalf("acceptance differs: reference %v, view %v, decode %v", rerr, verr, derr)
		}
		if rerr != nil {
			return
		}
		if !reflect.DeepEqual(o, exp) {
			t.Fatalf("decodeObject %+v, reference %+v", o, exp)
		}
		if v.node() != exp.node || v.kind() != exp.node.Kind || v.id() != exp.node.ID ||
			v.ten() != exp.node.Ten || v.hundred() != exp.node.Hundred {
			t.Fatalf("view header %+v, reference %+v", v.node(), exp.node)
		}
		if poid, pid := v.parent(); poid != exp.parentOID || pid != exp.parentID {
			t.Fatalf("view parent (%d, %d), reference (%d, %d)", poid, pid, exp.parentOID, exp.parentID)
		}
		for sec, want := range map[int][]ref{secChildren: exp.children, secParts: exp.parts, secPartOf: exp.partOf} {
			l := v.refs(sec)
			if l.len() != len(want) {
				t.Fatalf("section %d: %d refs, reference %d", sec, l.len(), len(want))
			}
			ids := l.ids()
			for i, r := range want {
				if l.at(i) != r || ids[i] != r.id {
					t.Fatalf("section %d ref %d: %v, reference %v", sec, i, l.at(i), r)
				}
			}
		}
		for sec, want := range map[int][]edgeRef{secRefsTo: exp.refsTo, secRefsFrom: exp.refsFrom} {
			l := v.edges(sec)
			if l.len() != len(want) {
				t.Fatalf("section %d: %d edges, reference %d", sec, l.len(), len(want))
			}
			for i, e := range want {
				if l.at(i) != e {
					t.Fatalf("section %d edge %d: %v, reference %v", sec, i, l.at(i), e)
				}
			}
		}
		if !bytes.Equal(v.text(), exp.text) || !bytes.Equal(v.form(), exp.form) {
			t.Fatal("view content differs from the reference")
		}
	})
}

// referenceDecode is a field-by-field sequential decoder of the object
// format, kept independent of objView as FuzzObjectView's oracle.
func referenceDecode(data []byte) (*object, error) {
	off := 0
	var bad error
	take := func(n int) []byte {
		if bad != nil {
			return nil
		}
		if n < 0 || off+n > len(data) {
			bad = errors.New("truncated")
			return nil
		}
		b := data[off : off+n]
		off += n
		return b
	}
	u := func(n int) uint64 {
		b := take(n)
		var v uint64
		for i := len(b) - 1; i >= 0; i-- {
			v = v<<8 | uint64(b[i])
		}
		return v
	}
	if v := u(1); bad == nil && v != objVersion {
		return nil, errors.New("bad version")
	}
	o := &object{}
	o.node.Kind = hyper.Kind(u(1))
	o.node.ID = hyper.NodeID(u(8))
	o.node.Ten = int32(u(4))
	o.node.Hundred = int32(u(4))
	o.node.Thousand = int32(u(4))
	o.node.Million = int32(u(4))
	o.parentOID = u(8)
	o.parentID = hyper.NodeID(u(8))
	refs := func() []ref {
		var rs []ref
		for n := int(u(2)); bad == nil && len(rs) < n; {
			rs = append(rs, ref{u(8), hyper.NodeID(u(8))})
		}
		return rs
	}
	edges := func() []edgeRef {
		var es []edgeRef
		for n := int(u(2)); bad == nil && len(es) < n; {
			es = append(es, edgeRef{u(8), hyper.NodeID(u(8)), int32(u(4)), int32(u(4))})
		}
		return es
	}
	o.children, o.parts, o.partOf = refs(), refs(), refs()
	o.refsTo, o.refsFrom = edges(), edges()
	content := func() []byte {
		n := int(u(4))
		if b := take(n); len(b) > 0 {
			return append([]byte(nil), b...)
		}
		return nil
	}
	o.text = content()
	o.form = content()
	if bad != nil {
		return nil, bad
	}
	if off != len(data) {
		return nil, errors.New("trailing bytes")
	}
	return o, nil
}
