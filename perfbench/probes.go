package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"anydb"
	"anydb/internal/core"
	"anydb/internal/oltp"
	"anydb/internal/plan"
	"anydb/internal/sim"
	"anydb/internal/sql"
	"anydb/internal/storage"
	"anydb/internal/stream"
	"anydb/internal/tpcc"
	"anydb/internal/wal"
)

// perLayer runs the isolated probes and derives every per-layer metric.
// The probes are the same in every workload's traced run; the go.*
// metrics and the tracing overhead come from the workload's own rounds.
// Everything, with the span summary and a sample of raw spans, is
// written to the trace file.
func perLayer(w *workload, seed int64, tr *tracer, untraced, traced []roundResult, ratio float64, dir string) (map[string]metric, error) {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	if err := runProbes(seed, tr, dir, set); err != nil {
		return nil, err
	}
	var gcCPU, procCPU, cycles, ops float64
	var peak uint64
	for _, r := range untraced {
		gcCPU += r.gcCPU
		procCPU += r.cpu.Seconds()
		cycles += r.gcCycles
		ops += float64(r.ops)
		peak = max(peak, r.heapPeak)
	}
	set("go.gc_cpu_share", gcCPU/procCPU, "1")
	set("go.gc_cycles_per_kop", cycles/ops*1000, "count")
	set("go.heap_peak_mb", float64(peak)/(1<<20), "MB")
	set("adapt.fig1_worst_vs_best", ratio, "1")
	rate := func(rrs []roundResult) float64 {
		var xs []float64
		for _, r := range rrs {
			xs = append(xs, float64(r.ops)/r.wall.Seconds())
		}
		return median(xs)
	}
	set("harness.trace_overhead", rate(traced)/rate(untraced), "1")
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("per-layer metric %s has no samples", k)
		}
	}
	tr.flush()
	if err := writeTrace(w, seed, tr, m); err != nil {
		return nil, err
	}
	return m, nil
}

func writeTrace(w *workload, seed int64, tr *tracer, layers map[string]metric) error {
	d := mustMkdir(filepath.Join(workDir, "traces"))
	path := filepath.Join(d, fmt.Sprintf("%s-seed%d.json", w.name, seed))
	data, err := json.MarshalIndent(struct {
		Workload string                 `json:"workload"`
		Seed     int64                  `json:"seed"`
		Layers   map[string]metric      `json:"layers"`
		Summary  map[string]spanSummary `json:"span_summary"`
		Spans    []span                 `json:"spans_sample"`
	}{w.name, seed, layers, tr.summary(), tr.sample}, "", " ")
	if err != nil {
		return err
	}
	fmt.Printf("trace written to %s\n", path)
	return os.WriteFile(path, data, 0o644)
}

// runProbes times the calls into each module's exported functions, one
// module at a time, each under a probe.* span.
func runProbes(seed int64, tr *tracer, dir string, set func(string, float64, string)) error {
	rec := tr.recorder()
	probe := func(name string, f func(sp spanRef) error) error {
		sp := rec.begin("probe."+name, spanRef{}, 0)
		defer rec.end(sp)
		if err := f(sp); err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		return nil
	}

	var hop1 float64
	if err := probe("stream", func(spanRef) error {
		hop1 = hopNS(1, 20000)
		set("stream.hop_ns.b1", hop1, "ns")
		set("stream.hop_ns.b64", hopNS(64, 4000), "ns")
		return nil
	}); err != nil {
		return err
	}

	db, _ := tpcc.NewDatabase(tpccConfig())
	for _, tn := range db.Catalog.Tables() {
		db.Catalog.SetStats(tn, storage.Analyze(db.Partition(0).Table(tn)))
	}
	gen := newTxnGen(seed)
	var pays, nos []tpcc.Txn
	for len(pays) < 20000 || len(nos) < 20000 {
		var t txn
		gen.next(&t)
		switch {
		case t.rollback:
		case t.payment && len(pays) < 20000:
			pays = append(pays, t.tpccTxn())
		case !t.payment && len(nos) < 20000:
			nos = append(nos, t.tpccTxn())
		}
	}
	var payNS, noNS float64
	if err := probe("oltp", func(spanRef) error {
		var err error
		if payNS, err = opsNS(db, pays); err != nil {
			return err
		}
		noNS, err = opsNS(db, nos)
		set("oltp.payment_ops_ns", payNS, "ns")
		set("oltp.neworder_ops_ns", noNS, "ns")
		return err
	}); err != nil {
		return err
	}
	if err := probe("storage", func(spanRef) error {
		return storageProbe(db, seed, set)
	}); err != nil {
		return err
	}
	if err := probe("wal", func(spanRef) error {
		return walProbe(filepath.Join(dir, "probe.log"), append(pays[:5000:5000], nos[:5000]...), set)
	}); err != nil {
		return err
	}
	parseUS := map[string]float64{}
	compileUS := map[string]float64{}
	if err := probe("sql-plan", func(spanRef) error {
		parts := make([]int, warehouses)
		for i := range parts {
			parts[i] = i
		}
		for _, qk := range queryKinds {
			const n = 500
			t0 := time.Now()
			for range n {
				if _, err := sql.Parse(qk.sql); err != nil {
					return err
				}
			}
			parseUS[qk.name] = time.Since(t0).Seconds() * 1e6 / n
			q, _ := sql.Parse(qk.sql)
			t0 = time.Now()
			for i := range n {
				if _, err := plan.CompileSQL(db.Catalog, q, core.QueryID(i+1), parts, []core.ACID{4}, core.ClientAC); err != nil {
					return err
				}
			}
			compileUS[qk.name] = time.Since(t0).Seconds() * 1e6 / n
			set("sql.parse_us."+qk.name, parseUS[qk.name], "us")
			set("plan.compile_us."+qk.name, compileUS[qk.name], "us")
		}
		return nil
	}); err != nil {
		return err
	}
	db = nil

	c, err := anydb.Open(clusterConfig())
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := warmUp(c); err != nil {
		return err
	}
	if err := probe("query", func(sp spanRef) error {
		return queryProbe(c, rec, sp, parseUS, compileUS, set)
	}); err != nil {
		return err
	}
	var sub *opStats
	var cpuPerTxn float64
	if err := probe("submit", func(sp spanRef) error {
		var err error
		sub, cpuPerTxn, err = miniOLTP(c, seed, tr, sp)
		if err != nil {
			return err
		}
		set("anydb.submit_ns.session.p50", nsQuantile(sub.submitNS[0], 0.5, 1), "ns")
		set("anydb.submit_ns.session.p99", nsQuantile(sub.submitNS[0], 0.99, 1), "ns")
		set("anydb.submit_ns.sessionless.p50", nsQuantile(sub.submitNS[1], 0.5, 1), "ns")
		set("anydb.submit_ns.sessionless.p99", nsQuantile(sub.submitNS[1], 0.99, 1), "ns")
		set("anydb.wait_us.p50", nsQuantile(sub.waitNS, 0.5, 1e3), "us")
		set("anydb.wait_us.p99", nsQuantile(sub.waitNS, 0.99, 1e3), "us")
		return nil
	}); err != nil {
		return err
	}
	// Reconciliation: the mini closed loop's CPU per transaction minus
	// the isolated per-transaction costs of submission, the op program
	// (which includes its row-store lookups) and one mailbox hop. The
	// rest — dispatch, acks, future resolution, remote segments, GC — is
	// unattributed.
	var submitSum float64
	var submits int
	for _, s := range sub.submitNS {
		for _, v := range s {
			submitSum += float64(v)
		}
		submits += len(s)
	}
	payShare := float64(len(sub.payLat)) / float64(len(sub.payLat)+len(sub.noLat))
	attributed := submitSum/float64(submits) + payShare*payNS + (1-payShare)*noNS + hop1
	set("recon.cpu_us_per_txn", cpuPerTxn, "us")
	set("recon.oltp_unattributed_us", cpuPerTxn-attributed/1e3, "us")
	c.Close()

	return probe("wal-cluster", func(spanRef) error {
		return durableProbe(filepath.Join(dir, "probe-wal"), seed, set)
	})
}

// hopNS ping-pongs batches between two goroutines over two mailboxes
// (SendBatch → RecvBatch each way) and returns the time of one hop.
func hopNS(batch, iters int) float64 {
	there, back := stream.NewMailbox[int](), stream.NewMailbox[int]()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]int, batch)
		for {
			for got := 0; got < batch; {
				n, ok := there.RecvBatch(buf[got:])
				if !ok {
					return
				}
				got += n
			}
			back.SendBatch(buf)
		}
	}()
	out, in := make([]int, batch), make([]int, batch)
	t0 := time.Now()
	for range iters {
		there.SendBatch(out)
		for got := 0; got < batch; {
			n, _ := back.RecvBatch(in[got:])
			got += n
		}
	}
	d := time.Since(t0)
	there.Close()
	wg.Wait()
	back.Close()
	return float64(d.Nanoseconds()) / float64(2*iters)
}

// opsNS runs each transaction's op program directly through an
// oltp.Exec with a no-op charge and returns the mean time per program.
// Building the programs is not timed.
func opsNS(db *storage.Database, txns []tpcc.Txn) (float64, error) {
	progs := make([][]oltp.Op, len(txns))
	for i, t := range txns {
		progs[i] = oltp.Program(t)
	}
	var undo storage.UndoLog
	e := &oltp.Exec{DB: db, Costs: &sim.CostModel{}, Charge: func(sim.Time) {}, Undo: &undo}
	t0 := time.Now()
	for _, ops := range progs {
		for _, op := range ops {
			if err := op.Run(e); err != nil {
				return 0, err
			}
		}
		undo.Commit()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(progs)), nil
}

func storageProbe(db *storage.Database, seed int64, set func(string, float64, string)) error {
	cust := db.Partition(0).TableByID(tpcc.TCustomerID)
	gen := newTxnGen(seed)
	keys := make([]storage.Key, 4096)
	for i := range keys {
		keys[i] = tpcc.CustomerKey(0, 1+gen.rng.Intn(districts), 1+gen.rng.Intn(customers))
	}
	const lookups = 1 << 20
	found := 0
	t0 := time.Now()
	for i := range lookups {
		if _, ok := cust.Lookup(keys[i&4095]); ok {
			found++
		}
	}
	set("storage.lookup_ns", float64(time.Since(t0).Nanoseconds())/lookups, "ns")
	if found != lookups {
		return fmt.Errorf("customer lookups found %d of %d keys", found, lookups)
	}
	var enc [3]int
	for _, tc := range []struct {
		name string
		id   storage.TableID
		col  string
	}{{"customer", tpcc.TCustomerID, "c_balance"}, {"orders", tpcc.TOrdersID, "o_carrier_id"}} {
		t := db.Partition(0).TableByID(tc.id)
		col := t.Schema.MustCol(tc.col)
		n := t.NumColChunks()
		for ci := range n {
			for _, v := range t.ColChunk(ci).Cols {
				enc[v.Enc]++
			}
		}
		// Each build follows an UpdateAt that dirties the chunk, as an
		// OLTP write beside a scan does.
		const builds = 60
		var d time.Duration
		for i := range builds {
			ci := i % n
			slot := int32(ci << storage.ColChunkShift)
			t.UpdateAt(slot, col, t.Field(slot, col))
			t0 := time.Now()
			t.ColChunk(ci)
			d += time.Since(t0)
		}
		set("storage.colchunk_build_us."+tc.name, d.Seconds()*1e6/builds, "us")
	}
	set("storage.enc_vecs.raw", float64(enc[storage.EncRaw]), "count")
	set("storage.enc_vecs.dict", float64(enc[storage.EncDict]), "count")
	set("storage.enc_vecs.for", float64(enc[storage.EncFoR]), "count")
	return nil
}

// walProbe times Logger.Append and group flushes (write + fsync) of one
// and of 64 records over a FileDevice.
func walProbe(path string, txns []tpcc.Txn, set func(string, float64, string)) error {
	dev, err := wal.OpenFile(path)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer dev.Close()
	l := wal.NewLogger(dev, 0)
	var appendD time.Duration
	for i := range txns {
		t0 := time.Now()
		if _, err := l.Append(&txns[i]); err != nil {
			return err
		}
		appendD += time.Since(t0)
		if i%64 == 63 {
			if err := l.Flush(); err != nil {
				return err
			}
		}
	}
	set("wal.append_ns", float64(appendD.Nanoseconds())/float64(len(txns)), "ns")
	for _, g := range []int{1, 64} {
		const flushes = 30
		var d time.Duration
		for i := range flushes {
			for j := range g {
				if _, err := l.Append(&txns[(i*g+j)%len(txns)]); err != nil {
					return err
				}
			}
			t0 := time.Now()
			if err := l.Flush(); err != nil {
				return err
			}
			d += time.Since(t0)
		}
		set(fmt.Sprintf("wal.flush_us.g%d", g), d.Seconds()*1e6/flushes, "us")
	}
	return nil
}

// queryProbe times Query calls and Rows drains per kind, alone and in
// bursts of 32, on a quiet cluster.
func queryProbe(c *anydb.Cluster, rec *recorder, parent spanRef, parseUS, compileUS map[string]float64, set func(string, float64, string)) error {
	ctx := context.Background()
	one := func(k int, parent spanRef) (call, drainD time.Duration, err error) {
		sp := rec.begin("Query", parent, int64(k))
		t0 := time.Now()
		rows, err := c.Query(ctx, queryKinds[k].sql)
		call = time.Since(t0)
		rec.end(sp)
		if err != nil {
			return call, 0, err
		}
		sp = rec.begin("drain", parent, int64(k))
		t0 = time.Now()
		_, err = drain(rows)
		drainD = time.Since(t0)
		rec.end(sp)
		return call, drainD, err
	}
	// burst fires the given kinds at once and returns the per-query call
	// times and the burst's wall time.
	burst := func(kinds []int) ([]float64, time.Duration, error) {
		calls := make([]float64, len(kinds))
		errs := make([]error, len(kinds))
		sp := rec.begin("burst", parent, 0)
		t0 := time.Now()
		var wg sync.WaitGroup
		for i, k := range kinds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				call, _, err := one(k, sp)
				calls[i], errs[i] = call.Seconds()*1e3, err
			}()
		}
		wg.Wait()
		wall := time.Since(t0)
		rec.end(sp)
		for _, err := range errs {
			if err != nil {
				return nil, 0, err
			}
		}
		return calls, wall, nil
	}
	soloTotal := make([]float64, len(queryKinds))
	for k, qk := range queryKinds {
		var calls, drains []float64
		for range 15 {
			call, d, err := one(k, parent)
			if err != nil {
				return err
			}
			calls = append(calls, call.Seconds()*1e3)
			drains = append(drains, d.Seconds()*1e6)
		}
		solo, dr := median(calls), median(drains)
		soloTotal[k] = solo + dr/1e3
		set("anydb.query_call_ms."+qk.name+".solo", solo, "ms")
		set("anydb.rows_drain_us."+qk.name, dr, "us")
		set("olap.residual_ms."+qk.name, solo-(parseUS[qk.name]+compileUS[qk.name])/1e3, "ms")
		var burstCalls []float64
		same := make([]int, burstSize)
		for i := range same {
			same[i] = k
		}
		for range 4 {
			calls, _, err := burst(same)
			if err != nil {
				return err
			}
			burstCalls = append(burstCalls, calls...)
		}
		set("anydb.query_call_ms."+qk.name+".burst", median(burstCalls), "ms")
	}
	// Sharing: the solo time of a mixed burst's 32 queries run one after
	// another, over the burst's wall time.
	mixed := make([]int, burstSize)
	var sequential float64
	for i := range mixed {
		mixed[i] = i % len(queryKinds)
		sequential += soloTotal[mixed[i]]
	}
	var walls []float64
	for range 5 {
		_, wall, err := burst(mixed)
		if err != nil {
			return err
		}
		walls = append(walls, wall.Seconds()*1e3)
	}
	set("olap.burst_sharing", sequential/median(walls), "1")
	return nil
}

// miniOLTP drives the oltp-pipelined closed loop on c for half a second
// with spans on, and returns the outcomes (with per-call submit and wait
// times) and the process CPU per resolved transaction.
func miniOLTP(c *anydb.Cluster, seed int64, tr *tracer, parent spanRef) (*opStats, float64, error) {
	clients := []*opStats{newOpStats(), newOpStats()}
	r := &round{c: c, seed: seed, tr: tr, rec: tr.recorder(), parent: parent, clients: clients, q: &opStats{}}
	cpu0 := cpuTime()
	r.start = time.Now()
	r.deadline = r.start.Add(500 * time.Millisecond)
	driveOLTP(r)
	cpu := cpuTime() - cpu0
	st := &opStats{}
	for _, s := range clients {
		st.add(s)
	}
	if st.failed > 0 {
		return nil, 0, fmt.Errorf("%d failed: %v", st.failed, st.errs)
	}
	n := st.commits + st.rollbacks
	if n == 0 {
		return nil, 0, fmt.Errorf("no transaction resolved")
	}
	return st, cpu.Seconds() * 1e6 / float64(n), nil
}

// durableProbe runs the closed loop for half a second with Durability
// Batch, closes the cluster, and reports the log bytes per transaction
// and the time wal.Replay takes per transaction on a fresh database.
func durableProbe(walDir string, seed int64, set func(string, float64, string)) error {
	defer os.RemoveAll(walDir)
	cfg := clusterConfig()
	cfg.Durability, cfg.WALDir = anydb.DurabilityBatch, walDir
	c, err := anydb.Open(cfg)
	if err != nil {
		return err
	}
	if _, err := warmUp(c); err != nil {
		c.Close()
		return err
	}
	st, _, err := miniOLTP(c, seed, nil, spanRef{})
	c.Close()
	if err != nil {
		return err
	}
	committed := st.commits + 2 // the warm-up's payment and new-order
	paths, err := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if err != nil {
		return err
	}
	db, _ := tpcc.NewDatabase(tpccConfig())
	var size int64
	var applied int
	var d time.Duration
	for _, p := range paths {
		dev, err := wal.OpenFile(p)
		if err != nil {
			return err
		}
		n, _ := dev.Size()
		size += n
		t0 := time.Now()
		a, _, _, err := wal.Replay(dev, db)
		d += time.Since(t0)
		dev.Close()
		if err != nil {
			return err
		}
		applied += a
	}
	if int64(applied) != committed {
		return fmt.Errorf("replayed %d transactions, %d committed", applied, committed)
	}
	set("wal.bytes_per_txn", float64(size)/float64(committed), "B")
	set("wal.replay_us_per_txn", d.Seconds()*1e6/float64(applied), "us")
	return nil
}
