package oodb

import (
	"encoding/binary"
	"fmt"

	"hypermodel/internal/hyper"
)

// object is the decoded form of one persistent node object. Like a
// real OODB object it holds its attributes and its relationship
// collections directly; each entry carries both the target's OID (for
// physical traversal) and its uniqueId (the reference currency of the
// Backend interface), so a group lookup activates only one object.
type object struct {
	node      hyper.Node
	parentOID uint64
	parentID  hyper.NodeID
	children  []ref
	parts     []ref
	partOf    []ref
	refsTo    []edgeRef
	refsFrom  []edgeRef
	text      []byte
	form      []byte
}

// ref points at another object.
type ref struct {
	oid uint64
	id  hyper.NodeID
}

// edgeRef is one stored refTo/refFrom association endpoint.
type edgeRef struct {
	oid     uint64 // the other endpoint's OID
	id      hyper.NodeID
	offFrom int32
	offTo   int32
}

const objVersion = 1

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// encodeObject serializes an object.
func encodeObject(o *object) []byte {
	size := 1 + 1 + 8 + 4*4 + 8 + 8 +
		2 + 16*len(o.children) +
		2 + 16*len(o.parts) +
		2 + 16*len(o.partOf) +
		2 + 24*len(o.refsTo) +
		2 + 24*len(o.refsFrom) +
		4 + len(o.text) +
		4 + len(o.form)
	b := make([]byte, 0, size)
	b = append(b, objVersion, byte(o.node.Kind))
	b = appendU64(b, uint64(o.node.ID))
	b = appendU32(b, uint32(o.node.Ten))
	b = appendU32(b, uint32(o.node.Hundred))
	b = appendU32(b, uint32(o.node.Thousand))
	b = appendU32(b, uint32(o.node.Million))
	b = appendU64(b, o.parentOID)
	b = appendU64(b, uint64(o.parentID))
	appendRefs := func(rs []ref) {
		b = appendU16(b, uint16(len(rs)))
		for _, r := range rs {
			b = appendU64(b, r.oid)
			b = appendU64(b, uint64(r.id))
		}
	}
	appendRefs(o.children)
	appendRefs(o.parts)
	appendRefs(o.partOf)
	appendEdges := func(es []edgeRef) {
		b = appendU16(b, uint16(len(es)))
		for _, e := range es {
			b = appendU64(b, e.oid)
			b = appendU64(b, uint64(e.id))
			b = appendU32(b, uint32(e.offFrom))
			b = appendU32(b, uint32(e.offTo))
		}
	}
	appendEdges(o.refsTo)
	appendEdges(o.refsFrom)
	b = appendU32(b, uint32(len(o.text)))
	b = append(b, o.text...)
	b = appendU32(b, uint32(len(o.form)))
	b = append(b, o.form...)
	return b
}

// Encoded layout (objVersion 1), little-endian:
//
//	header   version u8 | kind u8 | id u64 | ten, hundred, thousand,
//	         million u32 | parentOID u64 | parentID u64
//	children, parts, partOf   count u16, then count × {oid u64, id u64}
//	refsTo, refsFrom          count u16, then count × {oid u64, id u64,
//	                          offFrom u32, offTo u32}
//	text, form                length u32, then the bytes
const (
	headerSize = 42
	refSize    = 16
	edgeSize   = 24
)

// Sections of an encoded object, in storage order.
const (
	secChildren = iota
	secParts
	secPartOf
	secRefsTo
	secRefsFrom
	secText
	secForm
	numSections
)

// objView reads an encoded object in place: parseView validates the
// whole encoding once and records where each section starts, and the
// accessors then read single fields straight from the bytes. The view
// borrows its bytes — when they come from objstore.View they alias a
// pinned page and the view must not outlive the callback; accessors
// returning []byte (text, form) borrow too.
type objView struct {
	b   []byte
	off [numSections]int32 // offset of each section's count field
}

// parseView validates data as an encoded object and returns a view of
// it. It accepts exactly the encodings decodeObject accepts.
func parseView(data []byte) (objView, error) {
	v := objView{b: data}
	if len(data) > 0 && data[0] != objVersion {
		return objView{}, fmt.Errorf("oodb: unsupported object version %d", data[0])
	}
	off := headerSize
	if off > len(data) {
		return objView{}, truncated(0, off, len(data))
	}
	for sec := 0; sec < numSections; sec++ {
		v.off[sec] = int32(off)
		width, stride := 2, refSize
		switch sec {
		case secRefsTo, secRefsFrom:
			stride = edgeSize
		case secText, secForm:
			width, stride = 4, 1
		}
		if off+width > len(data) {
			return objView{}, truncated(off, width, len(data))
		}
		var n int
		if width == 2 {
			n = int(binary.LittleEndian.Uint16(data[off:]))
		} else {
			n = int(binary.LittleEndian.Uint32(data[off:]))
		}
		off += width
		if n*stride > len(data)-off {
			return objView{}, truncated(off, n*stride, len(data))
		}
		off += n * stride
	}
	if off != len(data) {
		return objView{}, fmt.Errorf("oodb: %d trailing bytes in object", len(data)-off)
	}
	return v, nil
}

func truncated(off, n, size int) error {
	return fmt.Errorf("oodb: truncated object (%d+%d > %d)", off, n, size)
}

func (v *objView) u32(off int) int32  { return int32(binary.LittleEndian.Uint32(v.b[off:])) }
func (v *objView) u64(off int) uint64 { return binary.LittleEndian.Uint64(v.b[off:]) }

func (v *objView) kind() hyper.Kind  { return hyper.Kind(v.b[1]) }
func (v *objView) id() hyper.NodeID  { return hyper.NodeID(v.u64(2)) }
func (v *objView) ten() int32        { return v.u32(10) }
func (v *objView) hundred() int32    { return v.u32(14) }
func (v *objView) parentOID() uint64 { return v.u64(26) }

func (v *objView) node() hyper.Node {
	return hyper.Node{
		ID:       v.id(),
		Kind:     v.kind(),
		Ten:      v.ten(),
		Hundred:  v.hundred(),
		Thousand: v.u32(18),
		Million:  v.u32(22),
	}
}

// parent returns the 1-N parent's OID (0 for a root) and uniqueId.
func (v *objView) parent() (oid uint64, id hyper.NodeID) {
	return v.parentOID(), hyper.NodeID(v.u64(34))
}

// section returns the entries (or bytes) of a section and its count.
func (v *objView) section(sec int) (entries []byte, n int) {
	off := int(v.off[sec])
	switch sec {
	case secText, secForm:
		n = int(binary.LittleEndian.Uint32(v.b[off:]))
		return v.b[off+4 : off+4+n], n
	case secRefsTo, secRefsFrom:
		n = int(binary.LittleEndian.Uint16(v.b[off:]))
		return v.b[off+2 : off+2+n*edgeSize], n
	default:
		n = int(binary.LittleEndian.Uint16(v.b[off:]))
		return v.b[off+2 : off+2+n*refSize], n
	}
}

// refs returns a reference section (children, parts, partOf).
func (v *objView) refs(sec int) refList {
	b, _ := v.section(sec)
	return refList(b)
}

// edges returns an association section (refsTo, refsFrom).
func (v *objView) edges(sec int) edgeList {
	b, _ := v.section(sec)
	return edgeList(b)
}

// text and form return the content bytes, borrowed.
func (v *objView) text() []byte { b, _ := v.section(secText); return b }
func (v *objView) form() []byte { b, _ := v.section(secForm); return b }

// refList is an encoded reference section, read in place.
type refList []byte

func (l refList) len() int { return len(l) / refSize }
func (l refList) at(i int) ref {
	e := l[i*refSize:]
	return ref{binary.LittleEndian.Uint64(e), hyper.NodeID(binary.LittleEndian.Uint64(e[8:]))}
}

// ids returns the referenced uniqueIds in stored order.
func (l refList) ids() []hyper.NodeID {
	out := make([]hyper.NodeID, l.len())
	for i := range out {
		out[i] = hyper.NodeID(binary.LittleEndian.Uint64(l[i*refSize+8:]))
	}
	return out
}

// edgeList is an encoded association section, read in place.
type edgeList []byte

func (l edgeList) len() int { return len(l) / edgeSize }
func (l edgeList) at(i int) edgeRef {
	e := l[i*edgeSize:]
	return edgeRef{
		oid:     binary.LittleEndian.Uint64(e),
		id:      hyper.NodeID(binary.LittleEndian.Uint64(e[8:])),
		offFrom: int32(binary.LittleEndian.Uint32(e[16:])),
		offTo:   int32(binary.LittleEndian.Uint32(e[20:])),
	}
}

// object materializes the view into an owned object, the form the
// write paths modify and re-encode. Empty sections become nil, so a
// decoded object re-encodes to exactly its input.
func (v *objView) object() *object {
	o := &object{node: v.node()}
	o.parentOID, o.parentID = v.parent()
	refs := func(sec int) []ref {
		l := v.refs(sec)
		if l.len() == 0 {
			return nil
		}
		rs := make([]ref, l.len())
		for i := range rs {
			rs[i] = l.at(i)
		}
		return rs
	}
	edges := func(sec int) []edgeRef {
		l := v.edges(sec)
		if l.len() == 0 {
			return nil
		}
		es := make([]edgeRef, l.len())
		for i := range es {
			es[i] = l.at(i)
		}
		return es
	}
	o.children = refs(secChildren)
	o.parts = refs(secParts)
	o.partOf = refs(secPartOf)
	o.refsTo = edges(secRefsTo)
	o.refsFrom = edges(secRefsFrom)
	if t := v.text(); len(t) > 0 {
		o.text = append([]byte(nil), t...)
	}
	if f := v.form(); len(f) > 0 {
		o.form = append([]byte(nil), f...)
	}
	return o
}

// decodeObject parses encodeObject's format into an owned object: the
// view parser plus materialization. Only the write paths need it; reads
// go through objView.
func decodeObject(data []byte) (*object, error) {
	v, err := parseView(data)
	if err != nil {
		return nil, err
	}
	return v.object(), nil
}
