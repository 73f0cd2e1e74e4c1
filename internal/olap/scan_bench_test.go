package olap

import (
	"strconv"
	"testing"

	"anydb/internal/core"
	"anydb/internal/sim"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// flushSink is a stub core.Context standing in for the runtime on the
// scan hot path: it plays the single consumer of the emitted stream,
// recycling each batch and envelope at their death points exactly like
// the real consumers (join, sink) do.
type flushSink struct {
	costs   sim.CostModel
	batches int64
	rows    int64
}

func (c *flushSink) Self() core.ACID             { return 0 }
func (c *flushSink) Now() sim.Time               { return 0 }
func (c *flushSink) Charge(sim.Time)             {}
func (c *flushSink) Costs() *sim.CostModel       { return &c.costs }
func (c *flushSink) Topology() *core.Topology    { return nil }
func (c *flushSink) Offloaded(core.ACID) bool    { return true }
func (c *flushSink) Send(core.ACID, *core.Event) {}
func (c *flushSink) SendData(_ core.ACID, msg *core.DataMsg) {
	if msg.Batch != nil {
		c.batches++
		c.rows += int64(msg.Batch.Len())
		storage.FreeBatch(msg.Batch)
	}
	core.FreeDataMsg(msg)
}

// BenchmarkScanFlush measures the steady-state allocation cost of the
// shared scan's streaming path: one op folds every columnar chunk of a
// customer partition through one streaming registration (several batch
// flushes), then sends the final flush. With the batch and data-message
// pools, flushes must show zero steady-state allocations — the scratch
// batch recycles through the consumer and back. The registration is
// compiled once, outside the timed loop: its setup is per query, not
// per chunk.
//
//	go test -bench ScanFlush -benchmem ./internal/olap
func BenchmarkScanFlush(b *testing.B) {
	cfg := tpcc.Config{Warehouses: 1, Districts: 2, Customers: 3000,
		Items: 10, InitOrders: 10, Seed: 7}.WithDefaults()
	db := storage.NewDatabase(cfg.Warehouses, tpcc.Schemas()...)
	tpcc.Populate(db, cfg)

	t := db.Partition(0).TableByID(tpcc.TCustomerID)
	ctx := &flushSink{costs: sim.DefaultCosts()}
	r := newScanReg(t, &SharedScanSpec{
		Query: 1, Table: tpcc.TCustomerID, Part: 0,
		Cols: []string{"c_w_id", "c_d_id", "c_id"},
		Out:  7, To: 1, Producers: 1, BatchRows: DefaultBatchRows,
	})
	schema := r.out.Schema
	var match []int32
	pass := func() {
		for ci := 0; ci < t.NumColChunks(); ci++ {
			chunk := t.ColChunk(ci)
			match = matchChunk(chunk, r.preds, match)
			r.foldStream(ctx, chunk, match)
		}
		r.flush(ctx, true) // the final flush hands the scratch downstream
	}
	pass() // warm: chunk cache, match buffer and pool population
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A finished pass released its scratch; a new pass re-draws it
		// from the pool, as each new registration does.
		r.out = storage.GetBatch(schema)
		pass()
	}
	b.StopTimer()
	if ctx.rows == 0 || ctx.batches == 0 {
		b.Fatalf("scan produced nothing (rows=%d batches=%d)", ctx.rows, ctx.batches)
	}
}

// BenchmarkJoinProbe measures the steady-state cost of the hash join's
// probe path: one op probes a 1024-row batch against a built 512-row
// table (every other probe key matches one build row), gathering the
// matches into output batches the flushSink stub consumes and recycles.
// Key-column indexes resolve once per batch schema and the pair scratch
// is reused, so the probe must show zero steady-state allocations.
//
//	go test -bench JoinProbe -benchmem ./internal/olap
func BenchmarkJoinProbe(b *testing.B) {
	keyed := func(name string, n, mod int) *storage.Batch {
		bt := storage.NewBatch(storage.NewSchema(name,
			storage.Column{Name: name + "_k", Kind: storage.KInt},
			storage.Column{Name: name + "_v", Kind: storage.KInt}))
		for i := 0; i < n; i++ {
			bt.AppendValues(storage.Int(int64(i%mod)), storage.Int(int64(i)))
		}
		return bt
	}
	ctx := &flushSink{costs: sim.DefaultCosts()}
	st := newJoinState(&JoinSpec{
		Query: 1, Build: 1, BuildKey: []string{"b_k"},
		Probe: 2, ProbeKey: []string{"p_k"},
		Out: 3, To: 1, Producers: 1, Notify: core.NoAC,
	})
	// Neither phase touches the AC before its Last marker.
	(*joinBuildSink)(st).OnData(ctx, nil, &core.DataMsg{Batch: keyed("b", 512, 512)})
	probe := keyed("p", 1024, 1024)
	msg := &core.DataMsg{}
	op := func() {
		msg.Batch = storage.GetBatch(probe.Schema)
		msg.Batch.AppendBatch(probe)
		(*joinProbeSink)(st).OnData(ctx, nil, msg) // frees the batch
	}
	for i := 0; i < 4; i++ {
		op() // warm: output batches, pair scratch and pool population
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if ctx.rows == 0 || ctx.batches == 0 {
		b.Fatalf("join produced nothing (rows=%d batches=%d)", ctx.rows, ctx.batches)
	}
}

// groupMergeQuery is one GROUP BY c_state, COUNT(*) query's sink side:
// parts partial batches of groups groups each (the shared-scan partial
// layout), merged and finalized; the result batches are freed as a
// draining client would.
type groupMergeQuery struct {
	spec     *SinkSpec
	partials []*storage.Batch
	msg      core.DataMsg
}

func newGroupMergeQuery(parts, groups int) *groupMergeQuery {
	q := &groupMergeQuery{spec: &SinkSpec{
		Query: 1, In: 1, GroupBy: []string{"c_state"}, Aggs: []AggExpr{{Fn: AggCount}},
		MergePartials: true,
		OutCols:       []string{"c_state", "count"},
		OutKinds:      []storage.Kind{storage.KStr, storage.KInt},
		OutSrc:        []int{0, 1}, Limit: -1,
	}}
	schema := storage.NewSchema("customer_partial",
		storage.Column{Name: "g0", Kind: storage.KStr},
		storage.Column{Name: "p0", Kind: storage.KInt})
	for p := 0; p < parts; p++ {
		b := storage.NewBatch(schema)
		for g := 0; g < groups; g++ {
			// Each partition lists its groups in its own order, as dense
			// partials (packed-code order) do.
			k := (g*7 + p*13) % groups
			b.AppendValues(storage.Str(string(rune('A'+k/26%26))+string(rune('A'+k%26))+strconv.Itoa(k/676)),
				storage.Int(int64(k+p)))
		}
		q.partials = append(q.partials, b)
	}
	return q
}

func (q *groupMergeQuery) run(ctx core.Context) *QueryResult {
	s := newSinkState(q.spec)
	for _, p := range q.partials {
		q.msg.Batch = storage.GetBatch(p.Schema)
		q.msg.Batch.AppendBatch(p)
		s.OnData(ctx, nil, &q.msg) // frees the batch
	}
	res := s.result()
	for _, b := range res.Batches {
		storage.FreeBatch(b)
	}
	return res
}

// BenchmarkGroupMerge measures the sink's side of a grouped aggregate:
// 4 shared-scan partials of 676 groups each (GROUP BY c_state, COUNT(*)
// over four partitions) merged into the sink's group table and
// finalized into result batches.
//
//	go test -bench GroupMerge -benchmem ./internal/olap
func BenchmarkGroupMerge(b *testing.B) {
	q := newGroupMergeQuery(4, 676)
	ctx := &flushSink{costs: sim.DefaultCosts()}
	q.run(ctx) // warm: table, batch and map pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := q.run(ctx); res.Rows != 676 {
			b.Fatalf("merged %d groups, want 676", res.Rows)
		}
	}
}
