// Command perfbench is the repository's benchmark: the HyperModel
// paper's §6 cold/warm protocol on three workloads, with every output
// checked against an in-memory reference database, and a separate
// traced run that breaks the end-to-end times down by layer.
//
// Build and run it from the repository root through run.py:
//
//	python3 perfbench/run.py --workload oodb-l5 --seed 1 --seconds 20 --trace 0
//
// It prints each metric by name with its unit, a provenance line, and
// as its last line one JSON object with the keys correct, attempted,
// failed and metrics. It exits 1 when any output disagrees with the
// reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"hypermodel/internal/hyper"
)

// setups is how many times an untraced run sets the database up; it
// reports the median as setup_s.
const setups = 5

// minRounds pools enough warm samples per operation for a p99 with ten
// samples beyond it (minSamples), O9 aside (see opSpec.evenRounds).
const minRounds = (minSamples + iterations - 1) / iterations

// spanLimit bounds the spans a traced run keeps to write out.
const spanLimit = 100000

func main() {
	os.Exit(run())
}

type outcome struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	defs              []metricDef
	notes             []string
}

func run() int {
	name := flag.String("workload", "", "workload name: oodb-l5, reldb-l6-spill or remote-rw-l5")
	seed := flag.Int64("seed", 1, "workload seed; the database and every input derive from it")
	seconds := flag.Int("seconds", 20, "how long the protocol rounds run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	work := flag.String("workdir", filepath.Join(".bench_build", "work"), "directory for the databases (removed at exit)")
	spans := flag.String("spans", filepath.Join(".bench_build", "trace"), "directory the traced run writes its spans to")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(*work, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	ref, err := reference(w, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reference:", err)
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	var out *outcome
	var prov map[string]any
	if *trace == 0 {
		out, prov, err = untracedRun(w, ref, dir, *seed, budget)
	} else {
		out, prov, err = tracedRun(w, ref, dir, *seed, budget, *spans)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	prov["seed"] = *seed
	prov["run_seconds"] = *seconds
	prov["trace"] = *trace
	if err := report(w, dir, prov, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if !out.correct {
		return 1
	}
	return 0
}

// runRounds runs protocol rounds on inst until the budget is spent and
// at least atLeast rounds ran.
func runRounds(inst *instance, ref hyper.Backend, ops []*opSpec, seed int64, budget time.Duration, atLeast int) ([]*round, error) {
	deadline := time.Now().Add(budget)
	var rounds []*round
	for k := 0; k < atLeast || time.Now().Before(deadline); k++ {
		r, err := runRound(inst, ref, ops, seed, k)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", k, err)
		}
		rounds = append(rounds, r)
	}
	return rounds, nil
}

func tally(out *outcome, rounds []*round) {
	for _, r := range rounds {
		out.attempted += r.attempted
		out.failed += r.failed
		for _, p := range r.problems {
			out.notes = append(out.notes, "mismatch: "+p)
		}
	}
	if out.failed > 0 {
		out.correct = false
	}
}

// untracedRun measures the end-to-end metrics.
func untracedRun(w workload, ref hyper.Backend, dir string, seed int64, budget time.Duration) (*outcome, map[string]any, error) {
	var times []float64
	var inst *instance
	for i := 0; i < setups; i++ {
		d := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		in, elapsed, err := setup(w, d, seed, false)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, elapsed.Seconds())
		if i == setups-1 {
			inst = in
			break
		}
		if err := in.close(); err != nil {
			return nil, nil, err
		}
		if err := os.RemoveAll(d); err != nil {
			return nil, nil, err
		}
	}
	rounds, err := runRounds(inst, ref, w.opSpecs(), seed, budget, minRounds)
	cerr := inst.close()
	if err != nil {
		return nil, nil, err
	}
	if cerr != nil {
		return nil, nil, cerr
	}

	out := &outcome{correct: true, defs: endToEndDefs, metrics: timings(w, rounds)}
	tally(out, rounds)
	var mallocs uint64
	var warmNodes int64
	retries := 0
	for _, r := range rounds {
		mallocs += r.warmMallocs
		warmNodes += r.nodes[passWarmRead]
		retries += r.retries
	}
	out.metrics["setup_s"] = median(times)
	out.metrics["warm_allocs_per_node"] = ratio(float64(mallocs), float64(warmNodes))
	out.metrics["db_bytes_per_node"] = float64(inst.dbBytes) / float64(inst.lay.Total())
	out.metrics["peak_rss_mb"] = peakRSSMB()
	out.notes = append(out.notes, fmt.Sprintf("%d rounds, %d conflict retries; setup times %v s", len(rounds), retries, times))
	out.notes = append(out.notes, opTable(w, rounds)...)
	return out, provenance(w, dir, inst, len(rounds)), nil
}

// tracedRun measures the per-layer metrics. It sets up an untraced and
// a traced database from the same seed and runs the same rounds on
// both: the difference of their timings is the tracing overhead, and
// their outputs and counters must be identical. In the local workloads
// a second traced database repeats the first round; every count that
// does not repeat exactly is named, and only the counts that repeat
// are held to the traced/untraced comparison, since a count the program
// itself does not reproduce says nothing about the wrappers.
func tracedRun(w workload, ref hyper.Backend, dir string, seed int64, budget time.Duration, spanDir string) (*outcome, map[string]any, error) {
	plain, dPlain, err := setup(w, filepath.Join(dir, "plain"), seed, false)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	defer plain.close()
	traced, dTraced, err := setup(w, filepath.Join(dir, "traced"), seed, true)
	if err != nil {
		return nil, nil, fmt.Errorf("traced setup: %w", err)
	}
	defer traced.close()
	keep := &spanLog{limit: spanLimit}
	traced.setKeep(keep)

	out := &outcome{correct: true, defs: perLayerDefs}
	ops := w.opSpecs()
	deadline := time.Now().Add(budget)
	var plainRounds, tracedRounds []*round
	notRepeating := map[string]bool{}
	for k := 0; k < 2 || time.Now().Before(deadline); k++ {
		rp, err := runRound(plain, ref, ops, seed, k)
		if err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", k, err)
		}
		rt, err := runRound(traced, ref, ops, seed, k)
		if err != nil {
			return nil, nil, fmt.Errorf("traced round %d: %w", k, err)
		}
		traced.setKeep(nil)
		plainRounds, tracedRounds = append(plainRounds, rp), append(tracedRounds, rt)
		if w.remote {
			// The remote writer runs beside the reader, so the counters
			// depend on the interleaving.
			continue
		}
		if k == 0 {
			ra, err := repeatRound(w, ref, filepath.Join(dir, "again"), seed)
			if err != nil {
				return nil, nil, err
			}
			tally(out, []*round{ra})
			for _, key := range differingCounts(rt.counts, ra.counts, "") {
				notRepeating[key] = true
				out.notes = append(out.notes, fmt.Sprintf("count does not repeat for the same seed: %s (%d vs %d)", key, rt.counts[key], ra.counts[key]))
			}
		}
		for _, key := range differingCounts(rp.counts, rt.counts, "stats/") {
			if !notRepeating[key] {
				out.correct = false
				out.notes = append(out.notes, fmt.Sprintf("round %d: traced and untraced counter %s differ (%d vs %d)", k, key, rp.counts[key], rt.counts[key]))
			}
		}
	}
	tally(out, plainRounds)
	tally(out, tracedRounds)

	out.metrics = layers(w, tracedRounds)
	var self, roots int64
	for _, r := range tracedRounds {
		self, roots = self+r.agg.selfSum, roots+r.agg.rootSum
	}
	if self != roots {
		out.correct = false
		out.notes = append(out.notes, fmt.Sprintf("layer self times add up to %d ns, the operation spans to %d ns", self, roots))
	}
	out.metrics["trace.self_time_coverage"] = ratio(float64(self), float64(roots))
	out.metrics["trace.counts_not_repeating"] = float64(len(notRepeating))
	tp, tt := timings(w, plainRounds), timings(w, tracedRounds)
	tt["setup_s"], tp["setup_s"] = dTraced.Seconds(), dPlain.Seconds()
	for _, d := range timingDefs {
		out.metrics["overhead."+d.name] = tt[d.name] - tp[d.name]
	}

	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, nil, err
	}
	spanFile := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, seed))
	if err := keep.write(spanFile); err != nil {
		return nil, nil, err
	}
	out.notes = append(out.notes, fmt.Sprintf("%d round pairs; spans of the first traced round in %s (%d kept, %d dropped)",
		len(tracedRounds), spanFile, len(keep.spans), keep.dropped))
	return out, provenance(w, dir, traced, len(tracedRounds)), nil
}

// opTable is the paper's per-operation result table: cold and warm
// medians and the warm p99, per node (per operation for the edits).
func opTable(w workload, rounds []*round) []string {
	cold, warm, writer := pooled(rounds)
	lines := []string{fmt.Sprintf("%-6s %12s %12s %12s %8s  %s", "op", "cold_med", "warm_med", "warm_p99", "samples", "unit")}
	row := func(id string, c, wm []float64, unit string) {
		lines = append(lines, fmt.Sprintf("%-6s %12.4g %12.4g %12.4g %8d  %s", id, median(c), median(wm), quantile(wm, 0.99), len(wm), unit))
	}
	for _, op := range w.opSpecs() {
		unit := "us/node"
		if op.class == classEdit {
			unit = "ms/op"
		}
		row(op.id, cold[op.id], warm[op.id], unit)
	}
	if len(writer) > 0 {
		row("writer", writer, writer, "ms/op")
	}
	return lines
}

func (inst *instance) setKeep(l *spanLog) {
	inst.tr.keep = l
	if inst.wtr != nil {
		inst.wtr.keep = l
	}
	if inst.flat != nil {
		inst.flat.mu.Lock()
		inst.flat.keep = l
		inst.flat.mu.Unlock()
	}
}

// repeatRound sets up one more traced database from the seed and runs
// round 0 on it.
func repeatRound(w workload, ref hyper.Backend, dir string, seed int64) (*round, error) {
	again, _, err := setup(w, dir, seed, true)
	if err != nil {
		return nil, fmt.Errorf("repeat setup: %w", err)
	}
	r, err := runRound(again, ref, w.opSpecs(), seed, 0)
	if cerr := again.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("repeat round: %w", err)
	}
	return r, os.RemoveAll(dir)
}

// differingCounts lists the counters, among those with the prefix,
// whose values differ between a and b.
func differingCounts(a, b map[string]uint64, prefix string) []string {
	var out []string
	for k, v := range a {
		if strings.HasPrefix(k, prefix) && b[k] != v {
			out = append(out, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok && strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// report prints every metric with its unit, then the result line.
func report(w workload, dir string, prov map[string]any, out *outcome) error {
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("perfbench %s: cold = buffer pool dropped; the OS page cache still holds the files\n", w.name)
	fmt.Printf("provenance %s\n", pj)
	for _, n := range out.notes {
		fmt.Println("note:", n)
	}
	metrics := map[string]any{}
	for _, d := range out.defs {
		v, ok := out.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Printf("%-36s %14.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, d := range unboundDefs {
		if v, ok := out.metrics[d.name]; ok {
			fmt.Printf("%-36s %14.6g %s (no bound)\n", d.name, v, d.unit)
		}
	}
	fmt.Printf("%-36s %14.6g %s\n", "failed_ratio", ratio(float64(out.failed), float64(out.attempted)), "ratio")
	line, err := json.Marshal(map[string]any{
		"correct":   out.correct,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
