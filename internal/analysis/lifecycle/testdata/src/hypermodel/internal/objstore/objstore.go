// Stub of the real objstore package for the lifecycle fixtures.
package objstore

type OID uint64

type Addr struct{ pg uint64 }

type Store struct{}

func (s *Store) View(oid OID, hint *Addr, fn func(data []byte) error) error { return nil }
func (s *Store) ViewBatch(oids []OID, hints []Addr, fn func(i int, data []byte) error) error {
	return nil
}
