// Fixture for the framerelease analyzer: pin leaks that must be
// flagged, and releases/handoffs that must not be.
package framerelease

import "hypermodel/internal/storage/buffer"

type handle struct {
	p *buffer.Pool
	f *buffer.Frame
}

func leakRead(p *buffer.Pool) uint64 {
	f := p.Get(1) // want "frame f from Pool.Get is never released or handed off"
	return f.ID   // field read is not a release
}

func leakDiscard(p *buffer.Pool) {
	p.Insert(2, nil) // want "result of Pool.Insert is discarded"
}

func leakBlank(p *buffer.Pool) {
	_ = p.Get(3) // want "frame from Pool.Get is assigned to _ and never released"
}

func goodRelease(p *buffer.Pool) {
	f := p.Get(4)
	if f != nil {
		p.Release(f)
	}
}

func goodInsertRelease(p *buffer.Pool) {
	f := p.Insert(5, nil)
	p.MarkDirty(f)
}

func goodEscape(p *buffer.Pool) *handle {
	f := p.Get(6)
	return &handle{p: p, f: f} // ownership moves with the frame
}

func goodArg(p *buffer.Pool) error {
	return consume(p.Get(7)) // direct handoff to a call
}

func consume(f *buffer.Frame) error { return nil }

func goodHandle(p *buffer.Pool) *buffer.Handle {
	f := p.Get(9)
	return f.Handle() // the handle carries the pin
}

func allowed(p *buffer.Pool) uint64 {
	f := p.Get(8) //hyperlint:allow framerelease -- fixture exercises the suppression path
	return f.ID
}
