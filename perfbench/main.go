// Command perfbench is the repository's end-to-end benchmark. It drives
// one named workload against the public anydb API from a single
// process, checks every output, and prints its metrics; the last line of
// standard output is one JSON object with the gated metrics. With --trace 1 it
// also records spans around every call it makes into the system, runs
// the isolated per-layer probes, writes the spans and the per-layer
// metrics to .bench_build/perfbench/traces/, and prints the per-layer
// metrics instead of the end-to-end ones.
//
//	bash perfbench/run.sh --workload htap --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare <old-dir> <new-dir>
//
// See NOTES.md for the workloads, the metrics and the known defects.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"anydb"
	"anydb/internal/bench"
	"anydb/internal/sim"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workDir holds everything a run writes: WAL directories, traces.
const workDir = ".bench_build/perfbench"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload: oltp-pipelined, oltp-durable, olap-burst or htap")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "seconds of timed work (half-second rounds on fresh clusters)")
	trace := flag.Int("trace", 0, "1 records spans, runs the per-layer probes and prints per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(mustMkdir(workDir), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := runBench(w, *seed, *seconds, *trace == 1, dir)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func mustMkdir(d string) string {
	if err := os.MkdirAll(d, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	return d
}

// roundResult is what one round measured outside the latency samples.
type roundResult struct {
	traced    bool
	setup     time.Duration // Open plus warm-up
	ops       int64         // completed transactions and queries
	wall      time.Duration
	cpu       time.Duration
	alloc     float64
	gcCPU     float64 // runtime-estimated GC CPU seconds
	gcCycles  float64
	heapPeak  uint64
	p50, tail float64 // µs, over the round's gated latency samples
	latN      int
	replay    time.Duration // oltp-durable: reopen time
	replayTxn int64         // transactions the reopen replayed
}

// runBench runs rounds, each on a freshly opened cluster, until
// `seconds` of timed work are done, then the virtual-time guard, and in
// a traced run the probes. Every round pays a set-up; setup_s is their
// median.
func runBench(w *workload, seed int64, seconds int, traced bool, dir string) (*result, error) {
	rounds := max(1, int(time.Duration(seconds)*time.Second/w.round))
	if traced {
		rounds = max(2, rounds) // at least one untraced and one traced round
	}
	var tr *tracer
	if traced {
		tr = newTracer(seed)
	}
	clients := []*opStats{newOpStats(), newOpStats()}
	var all, tracedAll opStats // untraced samples pooled; traced rounds counted
	var rrs []roundResult
	for i := range rounds {
		// In a traced run rounds alternate untraced/traced, so the two
		// halves see the same drift and their ratio is the overhead.
		rt := traced && i%2 == 1
		var rtr *tracer
		if rt {
			rtr = tr
		}
		rr, st, err := runRound(w, seed*1000+int64(i), i, i == rounds-1, rtr, clients, dir)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rr.traced = rt
		rrs = append(rrs, rr)
		if rt { // the traced rounds' samples feed no metric
			tracedAll.attempted += st.attempted
			tracedAll.failed += st.failed
			tracedAll.errs = append(tracedAll.errs, st.errs...)
		} else {
			all.add(st)
		}
		tr.flush()
	}
	ratio, err := fig1Guard()
	if err != nil {
		return nil, err
	}
	attempted, failed := all.attempted+tracedAll.attempted, all.failed+tracedAll.failed
	errs := append(all.errs, tracedAll.errs...)
	if ratio < 0.9 {
		failed++
		errs = append(errs, fmt.Sprintf("adapt.fig1_worst_vs_best = %.4f, below the paper's 0.9 bound", ratio))
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	untraced := filterRounds(rrs, false)
	e2e := endToEnd(untraced, rrs)
	printHuman(w, seed, e2e, &all, untraced, rrs, ratio)
	if !traced {
		for _, name := range e2eNames {
			res.Metrics[name] = e2e[name].metric
		}
		return res, nil
	}
	layers, err := perLayer(w, seed, tr, untraced, filterRounds(rrs, true), ratio, dir)
	if err != nil {
		return nil, err
	}
	for k, v := range layers {
		res.Metrics[k] = v
	}
	return res, nil
}

func filterRounds(rrs []roundResult, traced bool) []roundResult {
	var out []roundResult
	for _, r := range rrs {
		if r.traced == traced {
			out = append(out, r)
		}
	}
	return out
}

// runRound opens a fresh cluster, warms it up, drives one timed phase,
// checks the outputs and closes the cluster. The last round of a durable
// workload also reopens the WAL and checks what it replays.
func runRound(w *workload, seed int64, idx int, last bool, tr *tracer, clients []*opStats, dir string) (roundResult, *opStats, error) {
	var rr roundResult
	cfg := clusterConfig()
	if w.durable {
		cfg.Durability = anydb.DurabilityBatch
		cfg.WALDir = filepath.Join(dir, fmt.Sprintf("wal-%d", idx))
	}
	rec := tr.recorder()
	roundSpan := rec.begin("round", spanRef{}, 0)
	defer rec.end(roundSpan)

	t0 := time.Now()
	sp := rec.begin("Open", roundSpan, 0)
	c, err := anydb.Open(cfg)
	rec.end(sp)
	if err != nil {
		return rr, nil, err
	}
	closed := false
	defer func() {
		if !closed {
			c.Close()
		}
	}()
	sp = rec.begin("warmup", roundSpan, 0)
	warm, err := warmUp(c)
	rec.end(sp)
	if err != nil {
		return rr, nil, fmt.Errorf("warm-up: %w", err)
	}
	rr.setup = time.Since(t0)

	for _, s := range clients {
		s.reset()
	}
	r := &round{w: w, c: c, seed: seed, warm: warm, tr: tr, rec: tr.recorder(), parent: roundSpan, clients: clients, q: &opStats{}}
	runtime.GC()
	before := readRuntime()
	hs := startHeapSampler()
	r.start = time.Now()
	r.deadline = r.start.Add(w.round)
	w.drive(r)
	end := time.Now()
	rr.heapPeak = hs.finish()
	after := readRuntime()

	st := &opStats{}
	for _, s := range clients {
		st.add(s)
	}
	st.add(r.q)
	rr.ops = st.commits + st.rollbacks + st.queries
	lat := st.gated(w)
	rr.p50, rr.tail, rr.latN = nsQuantile(lat, 0.5, 1e3), nsQuantile(lat, w.tailQ(), 1e3), len(lat)
	rr.wall = end.Sub(r.start)
	rr.cpu = after.cpu - before.cpu
	rr.alloc = after.allocBytes - before.allocBytes
	rr.gcCPU = after.gcCPU - before.gcCPU
	rr.gcCycles = after.gcCycles - before.gcCycles
	if rr.ops == 0 {
		st.fail("no operation completed in the round")
	}

	// Output checks: TPC-C consistency, no double resolution, and the
	// htap q3 range (it only grows, by at most the committed new-orders).
	sp = rec.begin("Verify", roundSpan, 0)
	err = c.Verify()
	rec.end(sp)
	if err != nil {
		st.fail("Verify: %v", err)
	}
	if u := c.Stats().UnmatchedDone; u != 0 {
		st.fail("Stats().UnmatchedDone = %d", u)
	}
	if len(st.q3) > 0 {
		var lo int64
		fmt.Sscan(warm[kQ3], &lo)
		for _, n := range st.q3 {
			if n < lo || n > lo+st.noCommits {
				st.fail("q3 = %d outside [%d, %d]", n, lo, lo+st.noCommits)
			}
		}
	}
	if w.durable && last {
		replay, n, err := restartCheck(c, cfg, rec, roundSpan, st.commits+2)
		closed = true
		if err != nil {
			st.fail("restart: %v", err)
		}
		rr.replay, rr.replayTxn = replay, n
	}
	if w.durable {
		if !closed {
			c.Close()
			closed = true
		}
		os.RemoveAll(cfg.WALDir)
	}
	return rr, st, nil
}

// warmUp runs the first round of every transaction type (a payment, a
// new-order and a rolled-back new-order) and every query kind, and
// returns the query answers.
func warmUp(c *anydb.Cluster) (ans [4]string, err error) {
	g := newTxnGen(0)
	var t txn
	for done := [3]bool{}; !done[0] || !done[1] || !done[2]; {
		g.next(&t)
		kind := 0
		switch {
		case t.rollback:
			kind = 2
		case !t.payment:
			kind = 1
		}
		if done[kind] {
			continue
		}
		f, err := submit(c, &t)
		if err != nil {
			return ans, err
		}
		committed, err := f.Wait(context.Background())
		if err != nil {
			return ans, err
		}
		if committed == t.rollback {
			return ans, fmt.Errorf("warm-up transaction committed=%v, rollback line=%v", committed, t.rollback)
		}
		done[kind] = true
	}
	r := &round{c: c}
	for k := range queryKinds {
		if ans[k], err = r.query(nil, spanRef{}, k, 0); err != nil {
			return ans, fmt.Errorf("query %s: %w", queryKinds[k].name, err)
		}
	}
	return ans, nil
}

// restartCheck closes c, reopens its WAL directory and requires the
// replayed cluster to verify and to hold the same sum of w_ytd, so
// every acknowledged payment survived. It returns the reopen time and
// the number of transactions replayed: logged counts the committed
// ones, warm-up included (rolled-back new-orders are never logged).
func restartCheck(c *anydb.Cluster, cfg anydb.Config, rec *recorder, parent spanRef, logged int64) (time.Duration, int64, error) {
	want, err := sumWYTD(c)
	c.Close()
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	sp := rec.begin("reopen", parent, 0)
	c2, err := anydb.Open(cfg)
	rec.end(sp)
	if err != nil {
		return 0, 0, err
	}
	defer c2.Close()
	d := time.Since(t0)
	if err := c2.Verify(); err != nil {
		return d, logged, fmt.Errorf("Verify after replay: %w", err)
	}
	got, err := sumWYTD(c2)
	if err != nil {
		return d, logged, err
	}
	if got != want {
		return d, logged, fmt.Errorf("sum(w_ytd) after replay = %.2f, before close %.2f", got, want)
	}
	return d, logged, nil
}

func sumWYTD(c *anydb.Cluster) (float64, error) {
	var s float64
	err := c.QueryRow(context.Background(), "SELECT SUM(w_ytd) FROM warehouse").Scan(&s)
	return s, err
}

// fig1Guard runs the virtual-time Figure-1 summary (4 ms phases, 32
// outstanding; about 5 s of CPU) and returns the adaptive run's worst
// per-phase fraction of the best static policy.
func fig1Guard() (float64, error) {
	opts := bench.DefaultOLTPOpts()
	opts.PhaseDur = 4 * sim.Millisecond
	opts.Outstanding = 32
	data, err := bench.JSONReport(opts)
	if err != nil {
		return 0, err
	}
	var rep bench.BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return 0, err
	}
	return rep.AdaptiveWorstVsBest, nil
}

// e2eNames are the gated end-to-end metrics, as BENCHMARK.json lists them.
var e2eNames = []string{"setup_s", "ops_per_s", "p50_us", "tail_us", "cpu_us_per_op", "alloc_b_per_op"}

// e2eValue is an end-to-end metric with its sample count.
type e2eValue struct {
	metric
	n int
}

// endToEnd derives the gated metrics from the untraced rounds: each is
// the median over rounds of the round's value, so a short disturbance
// of the machine moves it less than a pooled figure. setup_s takes
// every round.
func endToEnd(rrs []roundResult, allRounds []roundResult) map[string]e2eValue {
	var setups, rates, p50s, tails, cpus, allocs []float64
	for _, r := range allRounds {
		setups = append(setups, r.setup.Seconds())
	}
	n := 0
	for _, r := range rrs {
		if r.ops == 0 {
			continue
		}
		rates = append(rates, float64(r.ops)/r.wall.Seconds())
		p50s = append(p50s, r.p50)
		tails = append(tails, r.tail)
		cpus = append(cpus, r.cpu.Seconds()*1e6/float64(r.ops))
		allocs = append(allocs, r.alloc/float64(r.ops))
		n += r.latN
	}
	return map[string]e2eValue{
		"setup_s":        {metric{median(setups), "s"}, len(setups)},
		"ops_per_s":      {metric{median(rates), "op/s"}, len(rates)},
		"p50_us":         {metric{median(p50s), "us"}, n},
		"tail_us":        {metric{median(tails), "us"}, n},
		"cpu_us_per_op":  {metric{median(cpus), "us"}, len(cpus)},
		"alloc_b_per_op": {metric{median(allocs), "B"}, len(allocs)},
	}
}

// printHuman prints every metric of the workload, gated or not, with its
// unit and sample count: rrs are the untraced rounds, allRounds every
// round (the durable restart check runs on the last).
func printHuman(w *workload, seed int64, e2e map[string]e2eValue, st *opStats, rrs, allRounds []roundResult, ratio float64) {
	fmt.Printf("perfbench %s seed=%d rounds=%d\n", w.name, seed, len(rrs))
	line := func(name string, v float64, unit string, n int) {
		fmt.Printf("  %-18s %14.4f %-5s n=%d\n", name, v, unit, n)
	}
	for _, k := range e2eNames {
		line(k, e2e[k].Value, e2e[k].Unit, e2e[k].n)
	}
	var wall float64
	var peak uint64
	for _, r := range rrs {
		wall += r.wall.Seconds()
		peak = max(peak, r.heapPeak)
	}
	if wall > 0 && st.commits+st.rollbacks > 0 {
		line("txn_per_s", float64(st.commits+st.rollbacks)/wall, "txn/s", int(st.commits+st.rollbacks))
		line("payment_p50_us", nsQuantile(st.payLat, 0.5, 1e3), "us", len(st.payLat))
		line("payment_p99_us", nsQuantile(st.payLat, 0.99, 1e3), "us", len(st.payLat))
		line("neworder_p50_us", nsQuantile(st.noLat, 0.5, 1e3), "us", len(st.noLat))
		line("neworder_p99_us", nsQuantile(st.noLat, 0.99, 1e3), "us", len(st.noLat))
	}
	if wall > 0 && st.queries > 0 {
		var q []int64
		for _, l := range st.qLat {
			q = append(q, l...)
		}
		line("query_per_s", float64(st.queries)/wall, "q/s", int(st.queries))
		line("query_p50_ms", nsQuantile(q, 0.5, 1e6), "ms", len(q))
		line("query_p95_ms", nsQuantile(q, 0.95, 1e6), "ms", len(q))
		for k, l := range st.qLat {
			line("query_p50_ms."+queryKinds[k].name, nsQuantile(l, 0.5, 1e6), "ms", len(l))
		}
	}
	if len(st.genLate) > 0 {
		line("gen_late_ms.p99", nsQuantile(st.genLate, 0.99, 1e6), "ms", len(st.genLate))
	}
	if last := allRounds[len(allRounds)-1]; last.replayTxn > 0 {
		line("restart_us_per_txn", last.replay.Seconds()*1e6/float64(last.replayTxn), "us", int(last.replayTxn))
	}
	line("heap_peak_mb", float64(peak)/(1<<20), "MB", len(rrs))
	ratioErr := 0.0
	if st.attempted > 0 {
		ratioErr = float64(st.failed) / float64(st.attempted)
	}
	line("error_ratio", ratioErr, "1", int(st.attempted))
	line("fig1_worst_vs_best", ratio, "1", 1)
}
