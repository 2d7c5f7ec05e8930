package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"hypermodel/internal/hyper"
	"hypermodel/internal/remote"
)

// The paper's §6 protocol, for each operation of a round: draw 50
// inputs, drop caches, run 50 cold iterations, commit, run the same 50
// inputs warm, drop caches. Commit is inside every timed iteration, as
// in internal/harness. A run repeats whole rounds with fresh inputs and
// pools their samples; it never raises the iterations per round,
// because more iterations would turn the "cold" pass warm.
//
// "Cold" means the program's buffer pool was dropped. The operating
// system's page cache still holds the files, so cold passes measure
// the pager, checksums and system calls, not the storage device.

const iterations = 50

// depth is the M-N attribute closure depth of O15 and O18 (§6.5).
const depth = 25

type opClass int

const (
	classLookup   opClass = iota // O1–O8
	classTraverse                // O9–O11, O13–O15, O18
	classUpdate                  // O12
	classEdit                    // O16, O17
)

func (c opClass) writes() bool { return c == classUpdate || c == classEdit }

// inputs are one operation's drawn arguments, shared by its cold and
// warm passes and by the reference.
type inputs struct {
	ids   []hyper.NodeID
	oids  []hyper.OID
	xs    []int32
	rects []hyper.Rect
}

// result is one iteration's output in a form the reference can check.
type result struct {
	ids   []hyper.NodeID
	dists []hyper.NodeDist
	v     int64
	nodes int // the §6 normalization divisor
	err   error
}

type opSpec struct {
	id    string
	class opClass
	set   bool // the output is a set, so order is not compared
	// evenRounds runs the operation in even rounds only. O9 scans the
	// whole database 100 times a round, which is most of a round's
	// time; every scan averages over thousands of nodes, so its tail is
	// narrow and half the samples still give a steady p99.
	evenRounds bool
	root       spanName
	draw       func(rng *rand.Rand, lay hyper.Layout, in *inputs)
	run        func(b hyper.Backend, in *inputs, i int) result
	// refRun runs the operation on the reference when its inputs are
	// backend-specific (O2's object identifiers); nil means run.
	refRun func(b hyper.Backend, in *inputs, i int) result
	// state digests what the operation changes, which its paired
	// iterations must have restored; nil for read-only operations.
	state func(b hyper.Backend, in *inputs) ([]byte, error)
}

func idsResult(ids []hyper.NodeID, err error) result {
	return result{ids: ids, nodes: len(ids), err: err}
}

func drawN(in *inputs, rng *rand.Rand, draw func(*rand.Rand) hyper.NodeID) {
	in.ids = make([]hyper.NodeID, iterations)
	for i := range in.ids {
		in.ids[i] = draw(rng)
	}
}

// drawPairs draws iterations/2 inputs, each used twice in a row, so
// every second iteration of a self-inverse edit restores the state.
func drawPairs(in *inputs, rng *rand.Rand, draw func(*rand.Rand) hyper.NodeID) {
	in.ids = make([]hyper.NodeID, iterations)
	for i := 0; i < iterations; i += 2 {
		in.ids[i] = draw(rng)
		in.ids[i+1] = in.ids[i]
	}
}

func drawMillions(in *inputs, rng *rand.Rand) {
	in.xs = make([]int32, iterations)
	for i := range in.xs {
		in.xs[i] = int32(rng.Intn(hyper.MillionRange - hyper.MillionWindow + 1))
	}
}

func distinct(ids []hyper.NodeID) []hyper.NodeID {
	out := slices.Clone(ids)
	slices.Sort(out)
	return slices.Compact(out)
}

var allOps = []*opSpec{
	{id: "O1", class: classLookup,
		draw: func(rng *rand.Rand, lay hyper.Layout, in *inputs) { drawN(in, rng, lay.RandomNode) },
		run: func(b hyper.Backend, in *inputs, i int) result {
			v, err := hyper.NameLookup(b, in.ids[i])
			return result{v: int64(v), nodes: 1, err: err}
		}},
	{id: "O2", class: classLookup,
		draw: func(rng *rand.Rand, lay hyper.Layout, in *inputs) { drawN(in, rng, lay.RandomNode) },
		run: func(b hyper.Backend, in *inputs, i int) result {
			v, err := hyper.NameOIDLookup(b, in.oids[i])
			return result{v: int64(v), nodes: 1, err: err}
		},
		refRun: func(b hyper.Backend, in *inputs, i int) result {
			v, err := hyper.NameLookup(b, in.ids[i])
			return result{v: int64(v), nodes: 1, err: err}
		}},
	{id: "O3", class: classLookup, set: true,
		draw: func(rng *rand.Rand, lay hyper.Layout, in *inputs) {
			in.xs = make([]int32, iterations)
			for i := range in.xs {
				in.xs[i] = int32(rng.Intn(hyper.HundredRange - hyper.HundredWindow + 1))
			}
		},
		run: func(b hyper.Backend, in *inputs, i int) result {
			return idsResult(hyper.RangeLookupHundred(b, in.xs[i]))
		}},
	{id: "O4", class: classLookup, set: true,
		draw: func(rng *rand.Rand, lay hyper.Layout, in *inputs) { drawMillions(in, rng) },
		run: func(b hyper.Backend, in *inputs, i int) result {
			return idsResult(hyper.RangeLookupMillion(b, in.xs[i]))
		}},
	{id: "O5A", class: classLookup,
		draw: func(rng *rand.Rand, lay hyper.Layout, in *inputs) { drawN(in, rng, lay.RandomInternal) },
		run: func(b hyper.Backend, in *inputs, i int) result {
			return idsResult(hyper.GroupLookup1N(b, in.ids[i]))
		}},
	{id: "O5B", class: classLookup, set: true,
		draw: func(rng *rand.Rand, lay hyper.Layout, in *inputs) { drawN(in, rng, lay.RandomInternal) },
		run: func(b hyper.Backend, in *inputs, i int) result {
			return idsResult(hyper.GroupLookupMN(b, in.ids[i]))
		}},
	{id: "O6", class: classLookup,
		draw: func(rng *rand.Rand, lay hyper.Layout, in *inputs) { drawN(in, rng, lay.RandomNode) },
		run: func(b hyper.Backend, in *inputs, i int) result {
			return idsResult(hyper.GroupLookupMNAtt(b, in.ids[i]))
		}},
	{id: "O7A", class: classLookup,
		draw: func(rng *rand.Rand, lay hyper.Layout, in *inputs) { drawN(in, rng, lay.RandomNonRoot) },
		run: func(b hyper.Backend, in *inputs, i int) result {
			return idsResult(hyper.RefLookup1N(b, in.ids[i]))
		}},
	{id: "O7B", class: classLookup, set: true,
		draw: func(rng *rand.Rand, lay hyper.Layout, in *inputs) { drawN(in, rng, lay.RandomNonRoot) },
		run: func(b hyper.Backend, in *inputs, i int) result {
			return idsResult(hyper.RefLookupMN(b, in.ids[i]))
		}},
	{id: "O8", class: classLookup,
		draw: func(rng *rand.Rand, lay hyper.Layout, in *inputs) { drawN(in, rng, lay.RandomNode) },
		run: func(b hyper.Backend, in *inputs, i int) result {
			return idsResult(hyper.RefLookupMNAtt(b, in.ids[i]))
		}},
	{id: "O9", class: classTraverse, evenRounds: true,
		draw: func(rng *rand.Rand, lay hyper.Layout, in *inputs) {
			in.ids = []hyper.NodeID{lay.FirstID(), lay.LastID()}
		},
		run: func(b hyper.Backend, in *inputs, i int) result {
			n, err := hyper.SeqScan(b, in.ids[0], in.ids[1])
			return result{v: int64(n), nodes: n, err: err}
		}},
	{id: "O10", class: classTraverse,
		draw: func(rng *rand.Rand, lay hyper.Layout, in *inputs) { drawN(in, rng, lay.RandomClosureStart) },
		run: func(b hyper.Backend, in *inputs, i int) result {
			return idsResult(hyper.Closure1N(b, in.ids[i]))
		}},
	{id: "O11", class: classTraverse,
		draw: func(rng *rand.Rand, lay hyper.Layout, in *inputs) { drawN(in, rng, lay.RandomClosureStart) },
		run: func(b hyper.Backend, in *inputs, i int) result {
			sum, visited, err := hyper.Closure1NAttSum(b, in.ids[i])
			return result{v: sum, nodes: visited, err: err}
		}},
	{id: "O12", class: classUpdate,
		draw: func(rng *rand.Rand, lay hyper.Layout, in *inputs) { drawPairs(in, rng, lay.RandomClosureStart) },
		run: func(b hyper.Backend, in *inputs, i int) result {
			n, err := hyper.Closure1NAttSet(b, in.ids[i])
			return result{v: int64(n), nodes: n, err: err}
		},
		state: func(b hyper.Backend, in *inputs) ([]byte, error) {
			var out []byte
			for _, start := range distinct(in.ids) {
				ids, err := hyper.Closure1N(b, start)
				if err != nil {
					return nil, err
				}
				for _, id := range ids {
					h, err := b.Hundred(id)
					if err != nil {
						return nil, err
					}
					out = binary.LittleEndian.AppendUint64(out, uint64(id))
					out = binary.LittleEndian.AppendUint32(out, uint32(h))
				}
			}
			return out, nil
		}},
	{id: "O13", class: classTraverse,
		draw: func(rng *rand.Rand, lay hyper.Layout, in *inputs) {
			drawN(in, rng, lay.RandomClosureStart)
			drawMillions(in, rng)
		},
		run: func(b hyper.Backend, in *inputs, i int) result {
			return idsResult(hyper.Closure1NPred(b, in.ids[i], in.xs[i]))
		}},
	{id: "O14", class: classTraverse, set: true,
		draw: func(rng *rand.Rand, lay hyper.Layout, in *inputs) { drawN(in, rng, lay.RandomClosureStart) },
		run: func(b hyper.Backend, in *inputs, i int) result {
			return idsResult(hyper.ClosureMN(b, in.ids[i]))
		}},
	{id: "O15", class: classTraverse,
		draw: func(rng *rand.Rand, lay hyper.Layout, in *inputs) { drawN(in, rng, lay.RandomClosureStart) },
		run: func(b hyper.Backend, in *inputs, i int) result {
			return idsResult(hyper.ClosureMNAtt(b, in.ids[i], depth))
		}},
	{id: "O16", class: classEdit,
		draw: func(rng *rand.Rand, lay hyper.Layout, in *inputs) { drawPairs(in, rng, lay.RandomTextNode) },
		run: func(b hyper.Backend, in *inputs, i int) result {
			return result{nodes: 1, err: hyper.TextNodeEdit(b, in.ids[i], i%2 == 0)}
		},
		state: textState},
	{id: "O17", class: classEdit,
		// One form node for all fifty iterations (§6.7). Each rectangle
		// is inverted twice in a row so the bitmap is restored, like the
		// forward/backward pairs of O16.
		draw: func(rng *rand.Rand, lay hyper.Layout, in *inputs) {
			id, _ := lay.RandomFormNode(rng)
			in.ids = []hyper.NodeID{id}
			in.rects = make([]hyper.Rect, iterations)
			for i := 0; i < iterations; i += 2 {
				in.rects[i] = hyper.Rect{
					X: rng.Intn(hyper.BitmapMinSide - 25), Y: rng.Intn(hyper.BitmapMinSide - 25),
					W: 25 + rng.Intn(26), H: 25 + rng.Intn(26),
				}
				in.rects[i+1] = in.rects[i]
			}
		},
		run: func(b hyper.Backend, in *inputs, i int) result {
			return result{nodes: 1, err: hyper.FormNodeEdit(b, in.ids[0], in.rects[i])}
		},
		state: func(b hyper.Backend, in *inputs) ([]byte, error) {
			bm, err := b.Form(in.ids[0])
			if err != nil {
				return nil, err
			}
			return hyper.EncodeBitmap(bm), nil
		}},
	{id: "O18", class: classTraverse,
		draw: func(rng *rand.Rand, lay hyper.Layout, in *inputs) { drawN(in, rng, lay.RandomClosureStart) },
		run: func(b hyper.Backend, in *inputs, i int) result {
			pairs, err := hyper.ClosureMNAttLinkSum(b, in.ids[i], depth)
			return result{dists: pairs, nodes: len(pairs), err: err}
		}},
}

func textState(b hyper.Backend, in *inputs) ([]byte, error) {
	var out []byte
	for _, id := range distinct(in.ids) {
		text, err := b.Text(id)
		if err != nil {
			return nil, err
		}
		out = binary.LittleEndian.AppendUint64(out, uint64(id))
		out = append(out, text...)
	}
	return out, nil
}

var rootEdit = newSpanName("hyper.writerEdit")

func init() {
	for _, op := range allOps {
		op.root = newSpanName("hyper." + op.id)
	}
}

func opByID(id string) *opSpec {
	for _, op := range allOps {
		if op.id == id {
			return op
		}
	}
	panic("perfbench: unknown operation " + id)
}

// equal compares an output with the reference's.
func (op *opSpec) equal(got, want result) bool {
	if got.err != nil || want.err != nil || got.v != want.v || got.nodes != want.nodes {
		return false
	}
	if !slices.Equal(got.dists, want.dists) {
		return false
	}
	if op.set {
		a, b := slices.Clone(got.ids), slices.Clone(want.ids)
		slices.Sort(a)
		slices.Sort(b)
		return slices.Equal(a, b)
	}
	return slices.Equal(got.ids, want.ids)
}

// hashID seeds each operation's inputs apart, as internal/harness does.
func hashID(s string) int64 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return int64(h)
}

// roundSeed derives round k's seed from the workload seed (splitmix64).
func roundSeed(seed int64, k int) int64 {
	z := uint64(seed) + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// round is what one protocol round measured and checked.
type round struct {
	cold, warm map[string][]float64 // µs/node, or ms/op for the edits
	writer     []float64            // remote writer's edit+commit, ms
	nodes      [numPasses]int64
	// warmMallocs counts allocations over the warm read-only passes of
	// an untraced round.
	warmMallocs uint64
	// counts are the round's counters by name: "stats/..." from the
	// backends' own getters, the rest from the trace.
	counts            map[string]uint64
	attempted, failed int
	retries           int
	problems          []string
	agg               *agg // nil when untraced
}

func newRound() *round {
	return &round{cold: map[string][]float64{}, warm: map[string][]float64{}, counts: map[string]uint64{}}
}

func (r *round) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// roundOps is the operations round k runs.
func roundOps(ops []*opSpec, k int) []*opSpec {
	if k%2 == 0 {
		return ops
	}
	var out []*opSpec
	for _, op := range ops {
		if !op.evenRounds {
			out = append(out, op)
		}
	}
	return out
}

// runRound runs round k of the protocol on inst, checking every output
// against the reference ref, which replays the same inputs.
func runRound(inst *instance, ref hyper.Backend, ops []*opSpec, seed int64, k int) (*round, error) {
	r := newRound()
	ops = roundOps(ops, k)
	seed = roundSeed(seed, k)
	var ws *writerSession
	if inst.writer != nil {
		ws = inst.startWriter(roundSeed(seed, -2))
	}
	for _, op := range ops {
		var err error
		if op.class.writes() && ws != nil {
			// Only the writer session edits while the reader runs; a
			// reader update runs with the writer paused, and the writer
			// starts again from an empty cache, so neither commit
			// validates against pages the other changed.
			ws.gate.Lock()
			err = runOp(inst, ref, op, seed, r)
			ws.dropCache.Store(true)
			ws.gate.Unlock()
		} else {
			err = runOp(inst, ref, op, seed, r)
		}
		if err != nil {
			if ws != nil {
				ws.stop()
			}
			return nil, fmt.Errorf("%s: %w", op.id, err)
		}
	}
	if ws != nil {
		if err := ws.finish(inst, ref, r); err != nil {
			return nil, err
		}
	}
	if inst.tr != nil {
		r.agg = inst.takeTrace()
		for p := range r.agg.s {
			for n, st := range r.agg.s[p] {
				if st.count > 0 {
					r.counts[passNames[p]+"/"+spanNames[n]] = st.count
				}
				if st.bytes > 0 {
					r.counts[passNames[p]+"/"+spanNames[n]+".bytes"] = st.bytes
				}
			}
		}
	}
	if inst.srv != nil {
		cur := inst.serverCounts()
		for i, key := range []string{"server/commits", "server/flushes", "server/fast_path"} {
			r.counts[key] = cur[i] - inst.lastServer[i]
		}
		inst.lastServer = cur
	} else {
		commits := inst.db.CommitStats().Commits
		r.counts["stats/commits"] = commits - inst.lastCommits
		inst.lastCommits = commits
	}
	return r, nil
}

func (inst *instance) setPass(p pass) {
	if inst.tr != nil {
		inst.tr.pass = p
	}
	if inst.flat != nil {
		inst.flat.pass.Store(uint32(p))
	}
}

func (inst *instance) setWriterPass(p pass) {
	if inst.wtr != nil {
		inst.wtr.pass = p
	}
}

// runOp runs one operation under the protocol.
func runOp(inst *instance, ref hyper.Backend, op *opSpec, seed int64, r *round) error {
	in := &inputs{}
	op.draw(rand.New(rand.NewSource(seed^hashID(op.id))), inst.lay, in)
	b := inst.db
	inst.setPass(passOther)
	if op.id == "O2" {
		in.oids = make([]hyper.OID, len(in.ids))
		for i, id := range in.ids {
			oid, err := b.OIDOf(id)
			if err != nil {
				return err
			}
			in.oids[i] = oid
		}
	}

	refRun := op.run
	if op.refRun != nil {
		refRun = op.refRun
	}
	var before []byte
	if op.state != nil {
		var err error
		if before, err = op.state(ref, in); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
	}
	want := make([]result, iterations)
	passes := 1
	if op.class.writes() {
		passes = 2 // the reference replays the cold and the warm pass
	}
	for p := 0; p < passes; p++ {
		for i := range want {
			want[i] = refRun(ref, in, i)
			if want[i].err != nil {
				return fmt.Errorf("reference: %w", want[i].err)
			}
		}
		if err := ref.Commit(); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
	}

	cold, warm := passColdRead, passWarmRead
	if op.class.writes() {
		cold, warm = passColdWrite, passWarmWrite
	}
	got := make([]result, 2*iterations)
	if err := b.DropCaches(); err != nil {
		return err
	}
	inst.pass(op, in, cold, got[:iterations], r, r.cold)
	if err := b.Commit(); err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	countAllocs := inst.tr == nil && !op.class.writes()
	if countAllocs {
		runtime.ReadMemStats(&ms0)
	}
	inst.pass(op, in, warm, got[iterations:], r, r.warm)
	if countAllocs {
		runtime.ReadMemStats(&ms1)
		r.warmMallocs += ms1.Mallocs - ms0.Mallocs
	}
	inst.setPass(passOther)
	if err := b.DropCaches(); err != nil {
		return err
	}

	for i, g := range got {
		r.attempted++
		if !op.equal(g, want[i%iterations]) {
			r.fail("%s iteration %d (input %d): got %s, reference %s", op.id, i, i%iterations, describe(g), describe(want[i%iterations]))
		}
	}
	if op.state != nil {
		r.attempted++
		after, err := op.state(b, in)
		refAfter, rerr := op.state(ref, in)
		switch {
		case err != nil || rerr != nil:
			r.fail("%s state check: %v / reference %v", op.id, err, rerr)
		case !bytes.Equal(after, before) || !bytes.Equal(refAfter, before):
			r.fail("%s: the paired iterations did not restore the state they changed", op.id)
		}
		if err := b.Commit(); err != nil {
			return err
		}
	}
	return nil
}

func describe(r result) string {
	if r.err != nil {
		return "error: " + r.err.Error()
	}
	return fmt.Sprintf("v=%d nodes=%d ids=%d dists=%d", r.v, r.nodes, len(r.ids), len(r.dists))
}

// pass runs the 50 timed iterations of one pass, each with its commit.
// A remote reader iteration that hits an optimistic-validation conflict
// is retried once and counted as a retry.
func (inst *instance) pass(op *opSpec, in *inputs, p pass, out []result, r *round, samples map[string][]float64) {
	b, tr := inst.db, inst.tr
	h0, m0, d0 := inst.db.CacheStats()
	inst.setPass(p)
	for i := range out {
		t0 := now()
		if tr != nil {
			tr.beginOp(op.root)
		}
		res := op.run(b, in, i)
		if res.err == nil {
			res.err = b.Commit()
		}
		if errors.Is(res.err, remote.ErrConflict) {
			r.retries++
			res = op.run(b, in, i)
			if res.err == nil {
				res.err = b.Commit()
			}
		}
		if tr != nil {
			tr.end(0)
		}
		dt := now() - t0
		out[i] = res
		if op.class == classEdit {
			samples[op.id] = append(samples[op.id], float64(dt)/1e6)
		} else {
			samples[op.id] = append(samples[op.id], float64(dt)/1e3/float64(max(res.nodes, 1)))
		}
		r.nodes[p] += int64(max(res.nodes, 1))
	}
	inst.setPass(passOther)
	h1, m1, d1 := inst.db.CacheStats()
	key := "stats/" + op.id + "/" + passNames[p]
	r.counts[key+"/hits"] += h1 - h0
	r.counts[key+"/misses"] += m1 - m0
	r.counts[key+"/reads"] += d1 - d0
	if inst.client != nil {
		total, batched := inst.client.FrameStats()
		r.counts["frames/"+passNames[p]] += total - inst.lastFrames[0]
		r.counts["frames_batched/"+passNames[p]] += batched - inst.lastFrames[1]
		inst.lastFrames = [2]uint64{total, batched}
		reqs, _ := inst.srv.RequestStats()
		r.counts["server_requests/"+passNames[p]] += reqs - inst.lastReqs
		inst.lastReqs = reqs
		single := singleFetches(inst.client)
		r.counts["single_fetches/"+passNames[p]] += single - inst.lastSingle
		inst.lastSingle = single
	}
}

// singleFetches is how many pages the client fetched one per frame.
func singleFetches(c *remote.Client) uint64 {
	for _, o := range c.InflightStats().Ops {
		if o.Op == "GetPage" {
			return o.Count
		}
	}
	return 0
}

// writerSession is the remote workload's second client: a closed loop
// of forward/backward TextNodeEdit pairs, each edit committed through
// the server's commit leader and WAL. The reader never reads text, so
// none of its outputs depend on these edits.
type writerSession struct {
	gate      sync.RWMutex // held shared for one edit pair; exclusive to pause the writer
	dropCache atomic.Bool
	halt      atomic.Bool
	done      chan struct{}

	// Written by the writer goroutine, read after done is closed.
	samples           []float64
	touched           map[hyper.NodeID]bool
	attempted, failed int
	retries           int
	problems          []string
}

func (inst *instance) startWriter(seed int64) *writerSession {
	ws := &writerSession{done: make(chan struct{}), touched: map[hyper.NodeID]bool{}}
	inst.setWriterPass(passWriter)
	go func() {
		defer close(ws.done)
		rng := rand.New(rand.NewSource(seed))
		for {
			ws.gate.RLock()
			if ws.halt.Load() {
				ws.gate.RUnlock()
				return
			}
			if ws.dropCache.Swap(false) {
				inst.setWriterPass(passOther)
				if err := inst.writer.DropCaches(); err != nil {
					ws.fail("writer drop caches: %v", err)
				}
				inst.setWriterPass(passWriter)
			}
			id := inst.lay.RandomTextNode(rng)
			ws.touched[id] = true
			ws.edit(inst, id, true)
			ws.edit(inst, id, false)
			ws.gate.RUnlock()
		}
	}()
	return ws
}

func (ws *writerSession) fail(format string, args ...any) {
	ws.failed++
	if len(ws.problems) < 10 {
		ws.problems = append(ws.problems, fmt.Sprintf(format, args...))
	}
}

// edit runs and commits one timed edit, retrying once on a conflict.
func (ws *writerSession) edit(inst *instance, id hyper.NodeID, forward bool) {
	w, tr := inst.writer, inst.wtr
	t0 := now()
	if tr != nil {
		tr.beginOp(rootEdit)
	}
	err := editCommit(w, id, forward)
	if errors.Is(err, remote.ErrConflict) {
		ws.retries++
		err = editCommit(w, id, forward)
	}
	if tr != nil {
		tr.end(0)
	}
	ws.samples = append(ws.samples, float64(now()-t0)/1e6)
	ws.attempted++
	if err != nil {
		ws.fail("writer edit of node %d (forward=%v): %v", id, forward, err)
	}
}

func editCommit(w hyper.Backend, id hyper.NodeID, forward bool) error {
	if err := hyper.TextNodeEdit(w, id, forward); err != nil {
		return err
	}
	return w.Commit()
}

func (ws *writerSession) stop() {
	ws.halt.Store(true)
	<-ws.done
}

// finish stops the writer and checks that every text node it edited
// reads back as the reference's untouched original.
func (ws *writerSession) finish(inst *instance, ref hyper.Backend, r *round) error {
	ws.stop()
	inst.setWriterPass(passOther)
	r.writer = ws.samples
	r.attempted += ws.attempted
	r.failed += ws.failed
	r.retries += ws.retries
	r.problems = append(r.problems, ws.problems...)
	ids := make([]hyper.NodeID, 0, len(ws.touched))
	for id := range ws.touched {
		ids = append(ids, id)
	}
	in := &inputs{ids: ids}
	r.attempted++
	got, err := textState(inst.writer, in)
	want, rerr := textState(ref, in)
	switch {
	case err != nil || rerr != nil:
		r.fail("writer state check: %v / reference %v", err, rerr)
	case !bytes.Equal(got, want):
		r.fail("writer: the forward/backward edit pairs did not restore the texts")
	}
	return inst.writer.Commit()
}
