package olap

import (
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
