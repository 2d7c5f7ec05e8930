package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hypermodel/internal/backend/memdb"
	"hypermodel/internal/backend/oodb"
	"hypermodel/internal/backend/reldb"
	"hypermodel/internal/hyper"
	"hypermodel/internal/remote"
	"hypermodel/internal/storage/store"
	"hypermodel/internal/storage/vfs"
)

// workload is one configuration the benchmark measures.
type workload struct {
	name    string
	level   int
	backend string // "oodb" or "reldb"
	pool    int    // buffer pool pages; 0 is the store's default
	remote  bool
	ops     []string
}

// workloads are the benchmark's workloads; BENCHMARK.json gives each
// one's rationale.
var workloads = []workload{
	{
		// The 2.9 MB file fits the default 1024-page pool: warm passes
		// are pure CPU, with zero pager reads.
		name: "oodb-l5", level: 5, backend: "oodb",
		ops: []string{"O1", "O2", "O3", "O4", "O5A", "O5B", "O6", "O7A", "O7B", "O8", "O9", "O10", "O11", "O12", "O13", "O14", "O15", "O16", "O17", "O18"},
	},
	{
		// With the default pool every warm pass would read nothing;
		// 128 pages (512 KiB) against a 19 MB file make warm passes miss.
		name: "reldb-l6-spill", level: 6, backend: "reldb", pool: 128,
		ops: []string{"O1", "O3", "O4", "O5A", "O5B", "O6", "O7A", "O7B", "O8", "O9", "O10", "O11", "O12", "O13", "O14", "O15", "O16", "O17", "O18"},
	},
	{
		name: "remote-rw-l5", level: 5, backend: "oodb", remote: true,
		// O12 runs with the writer paused; O16 and O17 are replaced by
		// the writer session's edits.
		ops: []string{"O1", "O2", "O3", "O4", "O5A", "O5B", "O6", "O7A", "O7B", "O8", "O9", "O10", "O11", "O12", "O13", "O14", "O15", "O18"},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) opSpecs() []*opSpec {
	out := make([]*opSpec, len(w.ops))
	for i, id := range w.ops {
		out[i] = opByID(id)
	}
	return out
}

// instance is one set-up database and the sessions the protocol drives.
type instance struct {
	db          hyper.DB // wrapped when traced
	lay         hyper.Layout
	tr          *tracer // nil when untraced
	close       func() error
	dbBytes     int64 // database file plus WAL after setup
	lastCommits uint64

	// The remote workload's reader client, server and writer session.
	client     *remote.Client
	srv        *remote.Server
	writer     hyper.DB
	wtr        *tracer
	flat       *flatRecorder
	lastFrames [2]uint64
	lastReqs   uint64
	lastSingle uint64
	lastServer [3]uint64
}

// serverCounts reads the server's commits, WAL flushes serving them,
// and commits validated by the snapshot fast path.
func (inst *instance) serverCounts() [3]uint64 {
	commits, _, _ := inst.srv.Stats()
	flushes, _, _, _, fast := inst.srv.GroupCommitStats()
	return [3]uint64{commits, flushes, fast}
}

// reference builds the memdb database every output is checked against.
func reference(w workload, seed int64) (hyper.Backend, error) {
	ref, err := memdb.Open("")
	if err != nil {
		return nil, err
	}
	if _, _, err := hyper.Generate(ref, hyper.GenConfig{LeafLevel: w.level, Seed: seed}); err != nil {
		return nil, err
	}
	return ref, ref.Commit()
}

func newBackend(kind string, sp space) (hyper.DB, error) {
	if kind == "reldb" {
		return reldb.New(sp)
	}
	return oodb.New(sp, oodb.DefaultOptions())
}

func fileBytes(paths ...string) int64 {
	var n int64
	for _, p := range paths {
		if st, err := os.Stat(p); err == nil {
			n += st.Size()
		}
	}
	return n
}

// setup generates the database into dir, commits, closes and reopens
// it; for the remote workload it also starts the page server and dials
// the reader and writer sessions. The returned duration is setup_s.
func setup(w workload, dir string, seed int64, traced bool) (*instance, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	var inst *instance
	var err error
	if w.remote {
		inst, err = setupRemote(w, dir, seed, traced)
	} else {
		inst, err = setupLocal(w, dir, seed, traced)
	}
	if err != nil {
		return nil, 0, err
	}
	elapsed := time.Since(start)
	if traced {
		inst.takeTrace() // set-up spans are not part of any round
	}
	inst.lastCommits = inst.db.CommitStats().Commits
	if inst.srv != nil {
		inst.lastServer = inst.serverCounts()
		inst.lastReqs, _ = inst.srv.RequestStats()
		inst.lastFrames[0], inst.lastFrames[1] = inst.client.FrameStats()
		inst.lastSingle = singleFetches(inst.client)
	}
	return inst, elapsed, nil
}

func setupLocal(w workload, dir string, seed int64, traced bool) (*instance, error) {
	inst := &instance{}
	fs := vfs.OS()
	if traced {
		inst.tr = newTracer()
		fs = tracedFS{fs: vfs.OS(), rec: inst.tr}
	}
	path := filepath.Join(dir, "hyper.db")
	opts := store.Options{PoolPages: w.pool, FS: fs}
	open := func() (hyper.DB, error) {
		st, err := store.Open(path, &opts)
		if err != nil {
			return nil, err
		}
		var sp space = st
		if traced {
			if sp, err = wrapSpace(st, inst.tr); err != nil {
				st.Close()
				return nil, err
			}
		}
		db, err := newBackend(w.backend, sp)
		if err != nil {
			st.Close()
			return nil, err
		}
		if traced {
			db = wrapDB(db, inst.tr)
		}
		return db, nil
	}
	db, err := open()
	if err != nil {
		return nil, err
	}
	lay, _, err := hyper.Generate(db, hyper.GenConfig{LeafLevel: w.level, Seed: seed})
	if err == nil {
		err = db.Commit()
	}
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	if db, err = open(); err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	inst.db, inst.lay, inst.close = db, lay, db.Close
	inst.dbBytes = fileBytes(path, path+".wal")
	return inst, nil
}

func setupRemote(w workload, dir string, seed int64, traced bool) (*instance, error) {
	inst := &instance{}
	fs := vfs.OS()
	if traced {
		inst.flat = newFlatRecorder()
		inst.tr, inst.wtr = newTracer(), newTracer()
		fs = tracedFS{fs: vfs.OS(), rec: inst.flat}
	}
	path := filepath.Join(dir, "server.db")
	serve := func() (*store.Store, *remote.Server, string, error) {
		st, err := store.Open(path, &store.Options{PoolPages: w.pool, FS: fs})
		if err != nil {
			return nil, nil, "", err
		}
		srv := remote.NewServer(st)
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			st.Close()
			return nil, nil, "", err
		}
		return st, srv, addr.String(), nil
	}
	dial := func(addr string, tr *tracer) (*remote.Client, hyper.DB, error) {
		c, err := remote.Dial(addr, remote.ClientOptions{PoolPages: w.pool, Conns: 1, RequestTimeout: time.Minute})
		if err != nil {
			return nil, nil, err
		}
		var sp space = c
		if tr != nil {
			if sp, err = wrapSpace(c, tr); err != nil {
				c.Close()
				return nil, nil, err
			}
		}
		db, err := newBackend(w.backend, sp)
		if err != nil {
			c.Close()
			return nil, nil, err
		}
		if tr != nil {
			db = wrapDB(db, tr)
		}
		return c, db, nil
	}
	stop := func(st *store.Store, srv *remote.Server) error {
		return errors.Join(srv.Close(), st.Close())
	}

	st, srv, addr, err := serve()
	if err != nil {
		return nil, err
	}
	_, gen, err := dial(addr, inst.tr)
	if err != nil {
		stop(st, srv)
		return nil, err
	}
	lay, _, err := hyper.Generate(gen, hyper.GenConfig{LeafLevel: w.level, Seed: seed})
	if err == nil {
		err = gen.Commit()
	}
	err = errors.Join(err, gen.Close(), stop(st, srv))
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}

	if st, srv, addr, err = serve(); err != nil {
		return nil, fmt.Errorf("restart server: %w", err)
	}
	client, reader, err := dial(addr, inst.tr)
	if err != nil {
		stop(st, srv)
		return nil, err
	}
	_, writer, err := dial(addr, inst.wtr)
	if err != nil {
		reader.Close()
		stop(st, srv)
		return nil, err
	}
	inst.db, inst.lay, inst.client, inst.srv, inst.writer = reader, lay, client, srv, writer
	inst.close = func() error {
		return errors.Join(reader.Close(), writer.Close(), stop(st, srv))
	}
	inst.dbBytes = fileBytes(path, path+".wal")
	return inst, nil
}

// takeTrace collects the spans recorded since the last call: the
// reader's (or the local session's), the remote writer's and the
// server's. It also checks that in every protocol pass the self times
// of all spans add up to the operations' root spans, which holds when
// every span sits inside an operation.
func (inst *instance) takeTrace() *agg {
	a := inst.tr.agg
	inst.tr.agg = newAgg()
	if inst.wtr != nil {
		a.merge(inst.wtr.agg)
		inst.wtr.agg = newAgg()
	}
	a.selfSum, a.rootSum = a.selfCoverage()
	if inst.flat != nil {
		srv := inst.flat.take()
		a.commitRemote(srv)
		a.merge(srv)
	}
	return a
}

// selfCoverage sums, over the protocol passes, the self time of every
// span and the duration of the root spans.
func (a *agg) selfCoverage() (self, roots int64) {
	for p := passColdRead; p <= passWriter; p++ {
		for n, st := range a.s[p] {
			if layerOf(spanName(n)) == layerHyper {
				roots += st.dur
			}
			self += st.self
		}
	}
	return self, roots
}

// commitRemote splits the writer's commits by the server's vfs time
// they contain: the wire part excludes the server's WAL syncs, the
// self part excludes all of the server's file calls.
func (a *agg) commitRemote(srv *agg) {
	syncs, all := sortedByStart(srv.serverSyncs), sortedByStart(srv.serverVFS)
	for _, c := range a.writerCommits {
		d := c.end - c.start
		a.commitWriter.add(d)
		a.commitWire.add(d - covered(c, syncs))
		a.commitWSelf.add(d - covered(c, all))
	}
	a.writerCommits = nil
	srv.serverSyncs, srv.serverVFS = nil, nil
}

type byStart struct {
	ivs    []interval
	maxDur int64
}

func sortedByStart(ivs []interval) byStart {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var m int64
	for _, iv := range ivs {
		m = max(m, iv.end-iv.start)
	}
	return byStart{ivs, m}
}

// covered is the part of c that the spans cover.
func covered(c interval, s byStart) int64 {
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].start >= c.start-s.maxDur })
	var sum int64
	for ; i < len(s.ivs) && s.ivs[i].start < c.end; i++ {
		lo, hi := max(c.start, s.ivs[i].start), min(c.end, s.ivs[i].end)
		if hi > lo {
			sum += hi - lo
		}
	}
	return sum
}
