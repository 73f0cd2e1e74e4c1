package olap

import (
	"slices"

	"anydb/internal/core"
	"anydb/internal/sim"
	"anydb/internal/storage"
)

// SinkSpec terminates a planned query: it consumes one stream (scan
// partials, scan projections, or join output), optionally folds it
// through a grouped aggregation, applies ORDER BY / LIMIT, and reports
// the result batches via EvQueryDone. One sink shape serves every plan
// the general planner emits:
//
//   - MergePartials: the stream carries partial-aggregate batches in
//     the shared-scan partial layout (group columns, then aggregate
//     cells); the sink merges them — the distributed-aggregation
//     combine step.
//   - Aggs without MergePartials: the stream carries raw rows (join
//     output); the sink folds them into group accumulators directly.
//   - No Aggs: plain collection of projected rows (capped at
//     CollectCap).
type SinkSpec struct {
	Query core.QueryID
	In    core.StreamID

	GroupBy       []string // raw-fold grouping columns (stream schema names)
	Aggs          []AggExpr
	MergePartials bool
	Cols          []string // collect-mode projection (stream schema names)

	// Output shape: one entry per result column, in SELECT order.
	// OutSrc maps each result column onto the sink's internal layout
	// (group values first, then one finalized value per aggregate); it
	// is nil in collect mode, where Cols already fixes the order.
	OutCols  []string
	OutKinds []storage.Kind
	OutSrc   []int

	OrderBy []OrderKey
	Limit   int // -1: no limit

	Notify core.ACID
}

// OrderKey is one ORDER BY term, indexing the result columns.
type OrderKey struct {
	Col  int
	Desc bool
}

// sinkState accumulates one query's result: aggregate modes fold into
// a group table created at the first batch; collect mode appends the
// projected cells to result-typed vectors.
type sinkState struct {
	spec      *SinkSpec
	table     *groupTable
	vecs      []storage.ColVec
	n         int // collected rows
	truncated bool

	// Column resolution (raw-fold group and aggregate columns, or the
	// collect projection), cached per batch schema.
	resolved *storage.Schema
	groupIdx []int
	aggIdx   []int
	projIdx  []int

	// Partial-merge scratch: the partial layout leads with the group
	// columns, so the index list is the identity — built once here, not
	// per incoming batch.
	partIdx []int
}

func newSink(ctx core.Context, ac *core.AC, spec *SinkSpec) {
	ac.Subscribe(ctx, spec.In, newSinkState(spec))
}

func newSinkState(spec *SinkSpec) *sinkState {
	s := &sinkState{spec: spec}
	if spec.MergePartials {
		s.partIdx = make([]int, len(spec.GroupBy))
		for i := range s.partIdx {
			s.partIdx[i] = i
		}
	}
	if len(spec.Aggs) == 0 {
		s.vecs = make([]storage.ColVec, len(spec.OutKinds))
		for i, k := range spec.OutKinds {
			s.vecs[i].Kind = k
		}
	}
	return s
}

func (s *sinkState) OnData(ctx core.Context, ac *core.AC, msg *core.DataMsg) {
	if msg.Batch != nil {
		ctx.Charge(ctx.Costs().AggRow * sim.Time(msg.Batch.Len()))
		if msg.Batch.Len() > 0 {
			switch {
			case s.spec.MergePartials:
				s.mergePartials(msg.Batch)
			case len(s.spec.Aggs) > 0:
				s.foldRaw(msg.Batch)
			default:
				s.collect(msg.Batch)
			}
		}
		storage.FreeBatch(msg.Batch)
	}
	if msg.Last {
		res := s.result()
		ac.DropStream(s.spec.In)
		done := core.GetEvent()
		done.Kind, done.Query = core.EvQueryDone, s.spec.Query
		done.Payload = res
		ctx.Send(s.spec.Notify, done)
	}
}

// groupIDs returns the group of every row of b (group columns cols) in
// the table's row-id scratch.
func (s *sinkState) groupIDs(b *storage.Batch, cols []int) []int32 {
	t := s.table
	if len(s.spec.GroupBy) == 0 {
		return t.globalIDs(b.Len())
	}
	t.sizeMap(b.Len())
	ids := t.rowIDs[:0]
	for r := 0; r < b.Len(); r++ {
		ids = append(ids, t.batchGroup(b, r, cols))
	}
	t.rowIDs = ids
	return ids
}

// mergePartials folds partial-aggregate rows (shared-scan partial
// layout) into the sink's group table.
func (s *sinkState) mergePartials(b *storage.Batch) {
	if s.table == nil {
		s.table = getGroupTable(s.spec.Aggs, len(s.spec.GroupBy), b.Schema.Cols)
	}
	s.table.merge(b, s.groupIDs(b, s.partIdx))
}

// foldRaw folds raw stream rows (join output) into the group table.
func (s *sinkState) foldRaw(b *storage.Batch) {
	if s.resolved != b.Schema {
		s.groupIdx = resolveCols(s.groupIdx, b.Schema, s.spec.GroupBy)
		s.aggIdx = s.aggIdx[:0]
		for _, a := range s.spec.Aggs {
			c := -1
			if a.Fn != AggCount {
				c = b.Schema.MustCol(a.Col)
			}
			s.aggIdx = append(s.aggIdx, c)
		}
		s.resolved = b.Schema
	}
	if s.table == nil {
		s.table = getGroupTable(s.spec.Aggs, len(s.groupIdx),
			partialLayout(b.Schema, s.groupIdx, s.aggIdx, s.spec.Aggs))
	}
	s.table.foldBatch(b, s.groupIDs(b, s.groupIdx), s.aggIdx)
}

// collect appends projected rows (no aggregation), up to CollectCap.
func (s *sinkState) collect(b *storage.Batch) {
	if s.resolved != b.Schema {
		s.projIdx = resolveCols(s.projIdx, b.Schema, s.spec.Cols)
		s.resolved = b.Schema
	}
	take := min(b.Len(), CollectCap-s.n)
	if take < b.Len() {
		s.truncated = true
	}
	for i, c := range s.projIdx {
		src, dst := &b.Cols[c], &s.vecs[i]
		for r := 0; r < take; r++ {
			dst.AppendValue(src.Value(r))
		}
	}
	s.n += take
}

// result orders, limits, and batches the query's result. Rows are
// never materialized: the result columns are typed vectors (the group
// table's key and finalized aggregate columns, or the collected cells),
// ORDER BY permutes an index, and each result batch gathers a column at
// a time.
func (s *sinkState) result() *QueryResult {
	spec := s.spec
	vecs, order := s.vecs, iota32(nil, s.n)
	if len(spec.Aggs) > 0 {
		vecs, order = s.aggResult()
	}
	if len(spec.OrderBy) > 0 {
		slices.SortStableFunc(order, func(a, b int32) int {
			for _, k := range spec.OrderBy {
				c := vecs[k.Col].Value(int(a)).Compare(vecs[k.Col].Value(int(b)))
				if c != 0 {
					if k.Desc {
						return -c
					}
					return c
				}
			}
			return 0
		})
	}
	if spec.Limit >= 0 && len(order) > spec.Limit {
		order = order[:spec.Limit]
	}
	if len(order) > CollectCap {
		order = order[:CollectCap]
		s.truncated = true
	}

	cols := make([]storage.Column, len(spec.OutCols))
	for i := range cols {
		cols[i] = storage.Column{Name: spec.OutCols[i], Kind: spec.OutKinds[i]}
	}
	schema := storage.NewSchema("result", cols...)
	var batches []*storage.Batch
	for i := 0; i < len(order); i += DefaultBatchRows {
		b := storage.GetBatch(schema)
		b.AppendVecs(vecs, order[i:min(i+DefaultBatchRows, len(order))])
		batches = append(batches, b)
	}
	if s.table != nil {
		s.table.release()
	}
	s.table, s.vecs = nil, nil
	return &QueryResult{
		Query: spec.Query, Rows: int64(len(order)),
		Cols: spec.OutCols, Batches: batches, Truncated: s.truncated,
	}
}

// aggResult returns the aggregate result columns in SELECT order and
// the row order: groups by canonical key. A global aggregate over zero
// rows still yields one row (COUNT(*) = 0; sums and extrema
// zero-valued — no NULLs in this value model).
func (s *sinkState) aggResult() ([]storage.ColVec, []int32) {
	spec := s.spec
	vecs := make([]storage.ColVec, len(spec.OutSrc))
	t := s.table
	if t == nil || t.n == 0 {
		if len(spec.GroupBy) > 0 {
			return vecs, nil
		}
		for i, k := range spec.OutKinds {
			vecs[i].Kind = k
			vecs[i].AppendValue(storage.Value{Kind: k})
		}
		return vecs, []int32{0}
	}
	base := len(spec.GroupBy)
	for i, src := range spec.OutSrc {
		if src < base {
			vecs[i] = t.cols[src]
		} else {
			vecs[i] = t.finalized(src - base)
		}
	}
	if base == 0 {
		return vecs, []int32{0}
	}
	return vecs, t.byKey(t.rowIDs)
}
