package olap

import (
	"sort"

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

// sinkState accumulates one query's result.
type sinkState struct {
	spec      *SinkSpec
	groups    map[string]*groupAcc
	order     []string
	rows      []storage.Row
	truncated bool
	keyBuf    []byte

	// Raw-fold column resolution, cached per batch schema.
	resolved *storage.Schema
	groupIdx []int
	aggIdx   []int

	// Partial-merge scratch: the partial layout leads with the group
	// columns, so the index list is the identity — built once here, not
	// per incoming batch.
	partIdx []int
}

func newSink(ctx core.Context, ac *core.AC, spec *SinkSpec) {
	s := &sinkState{spec: spec}
	if len(spec.Aggs) > 0 {
		s.groups = make(map[string]*groupAcc)
	}
	if spec.MergePartials {
		s.partIdx = make([]int, len(spec.GroupBy))
		for i := range s.partIdx {
			s.partIdx[i] = i
		}
	}
	ac.Subscribe(ctx, spec.In, s)
}

func (s *sinkState) OnData(ctx core.Context, ac *core.AC, msg *core.DataMsg) {
	if msg.Batch != nil {
		ctx.Charge(ctx.Costs().AggRow * sim.Time(msg.Batch.Len()))
		switch {
		case s.spec.MergePartials:
			s.mergePartials(msg.Batch)
		case len(s.spec.Aggs) > 0:
			s.foldRaw(msg.Batch)
		default:
			s.collect(msg.Batch)
		}
		storage.FreeBatch(msg.Batch)
	}
	if msg.Last {
		s.finalize(ctx, ac)
	}
}

// mergePartials folds partial-aggregate rows (shared-scan partial
// layout) into the sink's accumulators.
func (s *sinkState) mergePartials(b *storage.Batch) {
	g := len(s.spec.GroupBy)
	for r := 0; r < b.Len(); r++ {
		acc := s.acc(b, r, s.partIdx)
		col := g
		for j, a := range s.spec.Aggs {
			cell := &acc.cells[j]
			switch a.Fn {
			case AggCount:
				cell.count += b.Cols[col].Ints[r]
				col++
			case AggSum:
				if b.Cols[col].Kind == storage.KInt {
					cell.sumI += b.Cols[col].Ints[r]
				} else {
					cell.sumF += b.Cols[col].Floats[r]
				}
				col++
			case AggAvg:
				cell.sumF += b.Cols[col].Floats[r]
				cell.count += b.Cols[col+1].Ints[r]
				col += 2
			default: // min/max merge by comparison
				cell.addRaw(a.Fn, b.Value(r, col))
				col++
			}
		}
	}
}

// foldRaw folds raw stream rows (join output) into the accumulators.
func (s *sinkState) foldRaw(b *storage.Batch) {
	if s.resolved != b.Schema {
		s.groupIdx = colIdx(b.Schema, s.spec.GroupBy)
		s.aggIdx = make([]int, len(s.spec.Aggs))
		for j, a := range s.spec.Aggs {
			s.aggIdx[j] = -1
			if a.Fn != AggCount {
				s.aggIdx[j] = b.Schema.MustCol(a.Col)
			}
		}
		s.resolved = b.Schema
	}
	for r := 0; r < b.Len(); r++ {
		acc := s.acc(b, r, s.groupIdx)
		for j := range acc.cells {
			var v storage.Value
			if s.aggIdx[j] >= 0 {
				v = b.Value(r, s.aggIdx[j])
			}
			acc.cells[j].addRaw(s.spec.Aggs[j].Fn, v)
		}
	}
}

// acc finds or creates the group accumulator for row r.
func (s *sinkState) acc(b *storage.Batch, r int, groupIdx []int) *groupAcc {
	s.keyBuf = encodeGroupKey(s.keyBuf[:0], b, r, groupIdx)
	acc := s.groups[string(s.keyBuf)]
	if acc == nil {
		acc = &groupAcc{cells: make([]aggCell, len(s.spec.Aggs))}
		if len(groupIdx) > 0 {
			acc.keyVals = make([]storage.Value, len(groupIdx))
			for j, c := range groupIdx {
				acc.keyVals[j] = b.Value(r, c)
			}
		}
		key := string(s.keyBuf)
		s.groups[key] = acc
		s.order = append(s.order, key)
	}
	return acc
}

// collect appends projected rows (no aggregation).
func (s *sinkState) collect(b *storage.Batch) {
	proj := b.Project(s.spec.Cols...)
	for r := 0; r < proj.Len(); r++ {
		if len(s.rows) >= CollectCap {
			s.truncated = true
			break
		}
		s.rows = append(s.rows, proj.Row(r))
	}
	storage.FreeBatch(proj)
}

// finalize orders, limits, and batches the result, then reports it.
func (s *sinkState) finalize(ctx core.Context, ac *core.AC) {
	spec := s.spec
	var out []storage.Row
	if len(spec.Aggs) > 0 {
		// Deterministic group order: sort by encoded group key. ORDER BY,
		// when present, re-sorts below.
		sort.Strings(s.order)
		if len(s.order) == 0 && len(spec.GroupBy) == 0 {
			// Global aggregate over zero rows still yields one row
			// (COUNT(*) = 0; sums and extrema zero-valued — no NULLs in
			// this value model).
			out = append(out, s.zeroRow())
		}
		// Result kind of each aggregate, recovered from its SELECT slot
		// (every aggregate came from a select item, so one exists).
		base := len(spec.GroupBy)
		aggKind := make([]storage.Kind, len(spec.Aggs))
		for i, src := range spec.OutSrc {
			if src >= base {
				aggKind[src-base] = spec.OutKinds[i]
			}
		}
		vals := make(storage.Row, base+len(spec.Aggs))
		for _, k := range s.order {
			acc := s.groups[k]
			copy(vals, acc.keyVals)
			for j := range acc.cells {
				vals[base+j] = finalizeCell(spec.Aggs[j].Fn, aggKind[j], &acc.cells[j])
			}
			row := make(storage.Row, len(spec.OutSrc))
			for i, src := range spec.OutSrc {
				row[i] = vals[src]
			}
			out = append(out, row)
		}
	} else {
		out = s.rows
	}
	if len(spec.OrderBy) > 0 {
		sort.SliceStable(out, func(a, b int) bool {
			for _, k := range spec.OrderBy {
				c := out[a][k.Col].Compare(out[b][k.Col])
				if c == 0 {
					continue
				}
				return (c < 0) != k.Desc
			}
			return false
		})
	}
	if spec.Limit >= 0 && len(out) > spec.Limit {
		out = out[:spec.Limit]
	}
	if len(out) > CollectCap {
		out = out[:CollectCap]
		s.truncated = true
	}

	cols := make([]storage.Column, len(spec.OutCols))
	for i := range cols {
		cols[i] = storage.Column{Name: spec.OutCols[i], Kind: spec.OutKinds[i]}
	}
	schema := storage.NewSchema("result", cols...)
	var batches []*storage.Batch
	var cur *storage.Batch
	for _, row := range out {
		if cur == nil || cur.Len() >= DefaultBatchRows {
			cur = storage.GetBatch(schema)
			batches = append(batches, cur)
		}
		cur.AppendRow(row)
	}

	s.groups, s.order, s.rows = nil, nil, nil
	ac.DropStream(spec.In)
	done := core.GetEvent()
	done.Kind, done.Query = core.EvQueryDone, spec.Query
	done.Payload = &QueryResult{
		Query: spec.Query, Rows: int64(len(out)),
		Cols: spec.OutCols, Batches: batches, Truncated: s.truncated,
	}
	ctx.Send(spec.Notify, done)
}

// zeroRow synthesizes the zero-input global-aggregate result row in
// SELECT order.
func (s *sinkState) zeroRow() storage.Row {
	spec := s.spec
	row := make(storage.Row, len(spec.OutSrc))
	for i := range spec.OutSrc {
		switch spec.OutKinds[i] {
		case storage.KInt:
			row[i] = storage.Int(0)
		case storage.KFloat:
			row[i] = storage.Float(0)
		default:
			row[i] = storage.Str("")
		}
	}
	return row
}

// finalizeCell turns an accumulator into its result value.
func finalizeCell(fn AggFn, kind storage.Kind, c *aggCell) storage.Value {
	switch fn {
	case AggCount:
		return storage.Int(c.count)
	case AggSum:
		if kind == storage.KFloat {
			return storage.Float(c.sumF)
		}
		return storage.Int(c.sumI)
	case AggAvg:
		if c.count == 0 {
			return storage.Float(0)
		}
		return storage.Float(c.sumF / float64(c.count))
	default:
		return c.cur
	}
}
