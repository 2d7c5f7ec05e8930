// Stub of the real buffer package: just enough surface for the
// framerelease fixtures to type-check against the watched methods.
package buffer

type Frame struct {
	ID   uint64
	Page []byte
}

type Pool struct{}

func (p *Pool) Get(id uint64) *Frame                { return nil }
func (p *Pool) Insert(id uint64, img []byte) *Frame { return &Frame{ID: id, Page: img} }
func (p *Pool) Release(f *Frame)                    {}
func (p *Pool) MarkDirty(f *Frame)                  {}

type Handle struct{ f *Frame }

func (f *Frame) Handle() *Handle { return &Handle{f} }
func (h *Handle) Release()       {}
