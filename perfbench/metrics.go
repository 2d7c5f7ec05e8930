package main

import (
	"bufio"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// metricDef names one reported metric and its unit. The lists below are
// the ones BENCHMARK.json declares, in the same order.
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"lookup_warm_us_per_node", "us/node"},
	{"lookup_cold_us_per_node", "us/node"},
	{"traverse_warm_us_per_node", "us/node"},
	{"traverse_cold_us_per_node", "us/node"},
	{"warm_allocs_per_node", "allocs/node"},
	{"db_bytes_per_node", "B/node"},
	{"peak_rss_mb", "MB"},
}

// unboundDefs are printed but not declared in BENCHMARK.json, so no
// bound gates them. Across sets of ten seeds on a 2-vCPU virtual
// machine their interquartile range exceeded the largest bound a
// regression check may use (a quarter of the median): the traversal
// p99 reached 46%, and the write path, whose latency is mostly the
// WAL fsync on a shared virtual disk, reached 27% (update), 38% (edit)
// and 109% (edit p99).
var unboundDefs = []metricDef{
	{"traverse_warm_p99_us_per_node", "us/node"},
	{"update_us_per_node", "us/node"},
	{"edit_ms_per_op", "ms/op"},
	{"edit_p99_ms_per_op", "ms/op"},
}

// timingDefs are the timings whose tracing overhead the traced run
// reports.
var timingDefs = append(slices.Clone(endToEndDefs[:5]), unboundDefs...)

var layerDefs = []metricDef{
	{"hyper.self_us_per_node", "us/node"},
	{"hyper.backend_calls_per_node", "calls/node"},
	{"backend.self_us_per_node.warm", "us/node"},
	{"backend.self_us_per_node.cold", "us/node"},
	{"backend.batch_call_share", "ratio"},
	{"store.gets_per_node", "calls/node"},
	{"store.get_hit_ns.p50", "ns"},
	{"store.self_us_per_node.warm", "us/node"},
	{"store.commit_ro_us.p50", "us"},
	{"store.commit_self_us.p50", "us"},
	{"buffer.hit_ratio.warm", "ratio"},
	{"buffer.hit_ratio.cold", "ratio"},
	{"buffer.misses_per_node.warm", "misses/node"},
	{"pager.reads_per_node", "reads/node"},
	{"pager.read_bytes_per_node", "B/node"},
	{"pager.read_us.p50", "us"},
	{"pager.writes_per_commit", "writes/commit"},
	{"pager.write_us.p50", "us"},
	{"wal.bytes_per_commit", "B/commit"},
	{"wal.writes_per_commit", "writes/commit"},
	{"wal.syncs_per_commit", "syncs/commit"},
	{"wal.sync_us.p50", "us"},
	{"wal.sync_us.p99", "us"},
	{"wal.checkpoints", "count"},
	{"remote.frames_per_node.cold", "frames/node"},
	{"remote.batched_frame_share", "ratio"},
	{"remote.pages_per_batch", "pages/frame"},
	{"remote.fetch_us.p50", "us"},
	{"remote.commit_us.p50", "us"},
	{"remote.commit_wire_us.p50", "us"},
	{"server.requests_per_node.cold", "requests/node"},
	{"server.group_batch_mean", "txns/flush"},
	{"server.fast_path_share", "ratio"},
	{"server.syncs_per_commit", "syncs/commit"},
	{"trace.self_time_coverage", "ratio"},
	{"trace.counts_not_repeating", "count"},
}

// perLayerDefs is every metric a traced run reports: the layer metrics
// and, for each end-to-end timing, the traced minus the untraced value.
var perLayerDefs = func() []metricDef {
	out := slices.Clone(layerDefs)
	for _, d := range timingDefs {
		out = append(out, metricDef{"overhead." + d.name, d.unit})
	}
	return out
}()

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pooled gathers the samples of all rounds.
func pooled(rounds []*round) (cold, warm map[string][]float64, writer []float64) {
	cold, warm = map[string][]float64{}, map[string][]float64{}
	for _, r := range rounds {
		for op, xs := range r.cold {
			cold[op] = append(cold[op], xs...)
		}
		for op, xs := range r.warm {
			warm[op] = append(warm[op], xs...)
		}
		writer = append(writer, r.writer...)
	}
	return cold, warm, writer
}

// timings computes the end-to-end operation timings: a geometric mean
// over the operations of a class of each operation's median (or p99).
func timings(w workload, rounds []*round) map[string]float64 {
	cold, warm, writer := pooled(rounds)
	over := func(class opClass, samples map[string][]float64, stat func([]float64) float64) float64 {
		var xs []float64
		for _, op := range w.opSpecs() {
			if op.class == class {
				xs = append(xs, stat(samples[op.id]))
			}
		}
		return geomean(xs)
	}
	p99 := func(xs []float64) float64 { return quantile(xs, 0.99) }
	m := map[string]float64{
		"lookup_warm_us_per_node":       over(classLookup, warm, median),
		"lookup_cold_us_per_node":       over(classLookup, cold, median),
		"traverse_warm_us_per_node":     over(classTraverse, warm, median),
		"traverse_cold_us_per_node":     over(classTraverse, cold, median),
		"traverse_warm_p99_us_per_node": over(classTraverse, warm, p99),
		"update_us_per_node":            median(warm["O12"]),
	}
	if w.remote {
		m["edit_ms_per_op"] = median(writer)
		m["edit_p99_ms_per_op"] = quantile(writer, 0.99)
	} else {
		m["edit_ms_per_op"] = over(classEdit, warm, median)
		m["edit_p99_ms_per_op"] = over(classEdit, warm, p99)
	}
	return m
}

// minSamples is the fewest pooled warm samples of one operation that
// give its p99 ten samples beyond it.
const minSamples = 1000

func sumCounts(rounds []*round, match func(key string) bool) float64 {
	var n uint64
	for _, r := range rounds {
		for k, v := range r.counts {
			if match(k) {
				n += v
			}
		}
	}
	return float64(n)
}

func hasPrefix(s string) func(string) bool {
	return func(k string) bool { return strings.HasPrefix(k, s) }
}

// layers computes the per-layer metrics of a traced run's rounds.
func layers(w workload, rounds []*round) map[string]float64 {
	a := newAgg()
	var nodes [numPasses]float64
	for _, r := range rounds {
		a.merge(r.agg)
		for p, n := range r.nodes {
			nodes[p] += float64(n)
		}
	}
	warmN, coldN := nodes[passWarmRead], nodes[passColdRead]
	readN := warmN + coldN
	perNodeUS := func(st stat, n float64) float64 { return ratio(float64(st.self)/1e3, n) }

	backendRead := a.layerSum(layerBackend, passColdRead, passWarmRead).count
	backendCommits := a.s[passColdRead][bCommit].count + a.s[passWarmRead][bCommit].count
	batch := 0.0
	for _, n := range batchCalls {
		batch += float64(a.s[passColdRead][n].count + a.s[passWarmRead][n].count)
	}

	stats := func(p pass, field string) float64 {
		return sumCounts(rounds, func(k string) bool {
			return strings.HasPrefix(k, "stats/") && strings.HasSuffix(k, "/"+passNames[p]+"/"+field)
		})
	}
	hitRatio := func(p pass) float64 {
		h, m := stats(p, "hits"), stats(p, "misses")
		return ratio(h, h+m)
	}

	commits := sumCounts(rounds, hasPrefix("stats/commits")) + sumCounts(rounds, hasPrefix("server/commits"))
	pagerReads := a.s[passColdRead][sPagerRead]
	pagerReads.count += a.s[passWarmRead][sPagerRead].count
	pagerReads.bytes += a.s[passWarmRead][sPagerRead].bytes
	walWrites, walSyncs := a.nameSum(sWALWrite), a.nameSum(sWALSync)

	frames := sumCounts(rounds, hasPrefix("frames/cold_read")) + sumCounts(rounds, hasPrefix("frames/warm_read"))
	batched := sumCounts(rounds, hasPrefix("frames_batched/cold_read")) + sumCounts(rounds, hasPrefix("frames_batched/warm_read"))
	single := sumCounts(rounds, hasPrefix("single_fetches/cold_read")) + sumCounts(rounds, hasPrefix("single_fetches/warm_read"))
	fetched := 0.0
	if w.remote {
		fetched = stats(passColdRead, "reads") + stats(passWarmRead, "reads")
	}
	srvCommits, srvFlushes := sumCounts(rounds, hasPrefix("server/commits")), sumCounts(rounds, hasPrefix("server/flushes"))

	us := func(ns float64) float64 { return ns / 1e3 }
	m := map[string]float64{
		"hyper.self_us_per_node":        perNodeUS(a.layerSum(layerHyper, passWarmRead), warmN),
		"hyper.backend_calls_per_node":  ratio(float64(a.layerSum(layerBackend, passWarmRead).count), warmN),
		"backend.self_us_per_node.warm": perNodeUS(a.layerSum(layerBackend, passWarmRead), warmN),
		"backend.self_us_per_node.cold": perNodeUS(a.layerSum(layerBackend, passColdRead), coldN),
		"backend.batch_call_share":      ratio(batch, float64(backendRead-backendCommits)),
		"store.gets_per_node":           ratio(float64(a.s[passWarmRead][sGet].count), warmN),
		"store.get_hit_ns.p50":          a.getHit.quantile(0.5),
		"store.self_us_per_node.warm":   perNodeUS(a.layerSum(layerStore, passWarmRead), warmN),
		"store.commit_ro_us.p50":        us(a.commitRO.quantile(0.5)),
		"store.commit_self_us.p50":      us(a.commitWSelf.quantile(0.5)),
		"buffer.hit_ratio.warm":         hitRatio(passWarmRead),
		"buffer.hit_ratio.cold":         hitRatio(passColdRead),
		"buffer.misses_per_node.warm":   ratio(stats(passWarmRead, "misses"), warmN),
		"pager.reads_per_node":          ratio(float64(pagerReads.count), readN),
		"pager.read_bytes_per_node":     ratio(float64(pagerReads.bytes), readN),
		"pager.read_us.p50":             us(a.pagerRead.quantile(0.5)),
		"pager.writes_per_commit":       ratio(float64(a.nameSum(sPagerWrite).count), commits),
		"pager.write_us.p50":            us(a.pagerW.quantile(0.5)),
		"wal.bytes_per_commit":          ratio(float64(walWrites.bytes), commits),
		"wal.writes_per_commit":         ratio(float64(walWrites.count), commits),
		"wal.syncs_per_commit":          ratio(float64(walSyncs.count), commits),
		"wal.sync_us.p50":               us(a.walSync.quantile(0.5)),
		"wal.sync_us.p99":               us(a.walSync.quantile(0.99)),
		"wal.checkpoints":               float64(a.nameSum(sWALTrunc).count),
		"remote.frames_per_node.cold":   ratio(sumCounts(rounds, hasPrefix("frames/cold_read")), coldN),
		"remote.batched_frame_share":    ratio(batched, frames),
		"remote.pages_per_batch":        ratio(fetched-single, batched),
		"remote.fetch_us.p50":           us(a.getMiss.quantile(0.5)),
		"remote.commit_us.p50":          us(a.commitWriter.quantile(0.5)),
		"remote.commit_wire_us.p50":     us(a.commitWire.quantile(0.5)),
		"server.requests_per_node.cold": ratio(sumCounts(rounds, hasPrefix("server_requests/cold_read")), coldN),
		"server.group_batch_mean":       ratio(srvCommits, srvFlushes),
		"server.fast_path_share":        ratio(sumCounts(rounds, hasPrefix("server/fast_path")), srvCommits),
		"server.syncs_per_commit":       ratio(float64(walSyncs.count), srvCommits),
	}
	if !w.remote {
		m["remote.fetch_us.p50"] = 0 // a local Get that misses is a pager read
		m["server.syncs_per_commit"] = 0
	}
	return m
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
