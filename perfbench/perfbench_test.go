package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypermodel/internal/backend/memdb"
	"hypermodel/internal/backend/oodb"
	"hypermodel/internal/backend/reldb"
	"hypermodel/internal/hyper"
	"hypermodel/internal/remote"
	"hypermodel/internal/storage/store"
	"hypermodel/internal/storage/vfs"
)

// small shrinks a workload to a level-3 database for tests.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.level = 3
	return w
}

func memSpaces(t *testing.T) (local *store.Store, client *remote.Client) {
	t.Helper()
	st, err := store.Open("local.db", &store.Options{FS: vfs.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srvStore, err := store.Open("server.db", &store.Options{FS: vfs.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(srvStore)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := remote.Dial(addr.String(), remote.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		srvStore.Close()
	})
	return st, c
}

func TestSpaceWrapperExposesExactlyTheTargetsOptionals(t *testing.T) {
	local, client := memSpaces(t)
	for _, sp := range []space{local, client} {
		w, err := wrapSpace(sp, newTracer())
		if err != nil {
			t.Fatalf("%T: %v", sp, err)
		}
		if got, want := optionalsOf(w), optionalsOf(sp); got != want {
			t.Errorf("%T: wrapper exposes %+v, target %+v", sp, got, want)
		}
	}
	// A space with another set of optionals (a read-only view) has no
	// matching wrapper, so it is refused rather than misrepresented.
	if _, err := wrapSpace(readOnlySpace{local.ReadView()}, newTracer()); err == nil {
		t.Error("a read-only view was wrapped")
	}
}

type readOnlySpace struct{ *store.ReadView }

func (readOnlySpace) CacheStats() (uint64, uint64, uint64) { return 0, 0, 0 }

func TestBackendWrapperExposesExactlyTheTargetsOptionals(t *testing.T) {
	local, client := memSpaces(t)
	o, err := oodb.New(local, oodb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ro, err := oodb.New(client, oodb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r, err := reldb.New(local)
	if err != nil {
		t.Fatal(err)
	}
	m, err := memdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	optionals := func(b any) [5]bool {
		_, batch := b.(hyper.BatchReader)
		_, prefetch := b.(hyper.FrontierPrefetcher)
		_, stats := b.(hyper.StatsReporter)
		_, abort := b.(hyper.Aborter)
		_, db := b.(hyper.DB)
		return [5]bool{batch, prefetch, stats, abort, db}
	}
	for _, db := range []hyper.DB{o, ro, r, m} {
		if got, want := optionals(wrapDB(db, newTracer())), optionals(db); got != want {
			t.Errorf("%s: wrapper exposes %v, target %v", db.Name(), got, want)
		}
	}
}

// TestTracedRoundMatchesUntraced runs one round with the same seed on
// an untraced and a traced database and requires identical outputs
// (both are checked against the reference) and identical counters.
func TestTracedRoundMatchesUntraced(t *testing.T) {
	for _, name := range []string{"oodb-l5", "reldb-l6-spill", "remote-rw-l5"} {
		t.Run(name, func(t *testing.T) {
			w := small(t, name)
			ref, err := reference(w, 7)
			if err != nil {
				t.Fatal(err)
			}
			var rounds [2]*round
			for i, traced := range []bool{false, true} {
				inst, _, err := setup(w, filepath.Join(t.TempDir(), "db"), 7, traced)
				if err != nil {
					t.Fatal(err)
				}
				defer inst.close()
				if inst.writer != nil {
					// Without the concurrent writer the reader's round
					// is deterministic.
					inst.writer.Close()
					inst.writer = nil
				}
				rounds[i], err = runRound(inst, ref, w.opSpecs(), 99, 0)
				if err != nil {
					t.Fatal(err)
				}
				if rounds[i].failed != 0 {
					t.Fatalf("traced=%v: %d mismatches: %v", traced, rounds[i].failed, rounds[i].problems)
				}
			}
			for _, prefix := range []string{"stats/", "frames", "server/"} {
				if diff := differingCounts(rounds[0].counts, rounds[1].counts, prefix); len(diff) > 0 {
					t.Errorf("counters differ: %v", diff)
				}
			}
			self, roots := rounds[1].agg.selfSum, rounds[1].agg.rootSum
			if self != roots || roots == 0 {
				t.Errorf("layer self times add up to %d ns, the operation spans to %d ns", self, roots)
			}
		})
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	tr := newTracer()
	tr.pass = passWarmRead
	tr.beginOp(allOps[0].root)
	tr.begin(bHundred)
	tr.begin(sGet)
	_, getSelf, _ := tr.end(0)
	_, backendSelf, n := tr.end(0)
	dur, rootSelf, _ := tr.end(0)
	if n != 1 {
		t.Fatalf("backend span contained %d spans, want 1", n)
	}
	if getSelf+backendSelf+rootSelf != dur {
		t.Fatalf("self times %d+%d+%d do not add up to the root's %d", getSelf, backendSelf, rootSelf, dur)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the
// program's workloads and metrics in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, program has %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: %s %s, program has %s %s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndDefs)
	check("per_layer", b.PerLayer, perLayerDefs)
}

// TestRemoteRoundWithWriter runs a traced remote round with the writer
// session editing beside the reader, as the benchmark does.
func TestRemoteRoundWithWriter(t *testing.T) {
	w := small(t, "remote-rw-l5")
	ref, err := reference(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := setup(w, filepath.Join(t.TempDir(), "db"), 5, true)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	r, err := runRound(inst, ref, w.opSpecs(), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%d mismatches: %v", r.failed, r.problems)
	}
	if len(r.writer) == 0 || r.agg.commitWriter.n == 0 {
		t.Fatalf("the writer committed nothing (%d samples)", len(r.writer))
	}
	if r.agg.selfSum != r.agg.rootSum {
		t.Errorf("layer self times add up to %d ns, the operation spans to %d ns", r.agg.selfSum, r.agg.rootSum)
	}
}
