// Stub of the real btree package for the lifecycle fixtures.
package btree

type Tree struct{}

func (t *Tree) View(key []byte, fn func(val []byte) error) (bool, error) { return false, nil }

// Scan lends page slices too, but it is not a tracked lender.
func (t *Tree) Scan(from, to []byte, fn func(key, val []byte) (bool, error)) error { return nil }
