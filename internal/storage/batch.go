package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ColVec is one column of a columnar batch. Only the slice matching Kind
// is populated.
type ColVec struct {
	Kind   Kind
	Ints   []int64
	Floats []float64
	Strs   []string
}

func (c *ColVec) appendValue(v Value) {
	switch c.Kind {
	case KInt:
		c.Ints = append(c.Ints, v.I)
	case KFloat:
		c.Floats = append(c.Floats, v.F)
	default:
		c.Strs = append(c.Strs, v.S)
	}
}

// value materializes row i of the column as a Value.
func (c *ColVec) value(i int) Value {
	switch c.Kind {
	case KInt:
		return Int(c.Ints[i])
	case KFloat:
		return Float(c.Floats[i])
	default:
		return Str(c.Strs[i])
	}
}

// Batch is a columnar chunk of rows flowing through a data stream. OLAP
// operators exchange batches, not rows: this is the paper's vectorized
// query processing micro-model, and batch boundaries are where the
// simulation charges transfer and dispatch costs.
type Batch struct {
	Schema *Schema
	Cols   []ColVec
	n      int
	bytes  int64
}

// NewBatch returns an empty batch shaped like schema.
func NewBatch(schema *Schema) *Batch {
	b := &Batch{Schema: schema, Cols: make([]ColVec, schema.NumCols())}
	for i, c := range schema.Cols {
		b.Cols[i].Kind = c.Kind
	}
	return b
}

// batchClasses size-classes the batch pool by column count: a recycled
// batch is only useful when its column-vector capacities fit the next
// schema's arity, so each arity up to the cap pools separately (wider
// batches share the last class). TPC-C's scan/join schemas span 1–7
// columns, so classes stay hot.
const batchClasses = 9

var batchPools [batchClasses]sync.Pool

func batchClass(cols int) int {
	if cols >= batchClasses {
		return batchClasses - 1
	}
	return cols
}

// Batch-pool leak accounting, mirroring internal/core's event tracking
// (core.TrackPools toggles both). Off by default: one atomic flag load
// per Get/Free. The table-owned columnar chunk cache does not ride this
// pool at all — chunks are table state (colstore.go EncChunk), not
// in-flight messages, so only message batches are accounted here.
var (
	trackBatches atomic.Bool
	batchBal     atomic.Int64
)

// TrackBatches toggles batch-pool accounting and resets the counter.
func TrackBatches(on bool) {
	batchBal.Store(0)
	trackBatches.Store(on)
}

// BatchBalance reports outstanding tracked batches (gets minus frees).
func BatchBalance() int64 { return batchBal.Load() }

// GetBatch returns an empty batch shaped like schema, recycling vector
// capacity from the pool when a same-class batch is available. Pair
// with FreeBatch at the batch's single-consumer death point (after the
// last row was read or copied out).
func GetBatch(schema *Schema) *Batch {
	if trackBatches.Load() {
		batchBal.Add(1)
	}
	v := batchPools[batchClass(schema.NumCols())].Get()
	if v == nil {
		return NewBatch(schema)
	}
	b := v.(*Batch)
	b.Schema = schema
	n := schema.NumCols()
	if cap(b.Cols) < n {
		b.Cols = make([]ColVec, n)
	} else {
		b.Cols = b.Cols[:n]
	}
	for i := range b.Cols {
		c := &b.Cols[i]
		c.Kind = schema.Cols[i].Kind
		c.Ints = c.Ints[:0]
		c.Floats = c.Floats[:0]
		c.Strs = c.Strs[:0]
	}
	b.n, b.bytes = 0, 0
	return b
}

// FreeBatch recycles b, keeping its column-vector capacity. Only the
// consumer the batch was delivered to may free it, and only once no row
// or projected reference escapes (Row/Project copy, so their results
// survive the free). String cells are released eagerly so the pool
// never pins row data. Frees are optional — missed ones fall back to
// the GC.
func FreeBatch(b *Batch) {
	if b == nil {
		return
	}
	if trackBatches.Load() {
		batchBal.Add(-1)
	}
	for i := range b.Cols {
		clear(b.Cols[i].Strs)
	}
	batchPools[batchClass(len(b.Cols))].Put(b)
}

// AppendRow copies row into the batch.
func (b *Batch) AppendRow(row Row) {
	if len(row) != len(b.Cols) {
		panic(fmt.Sprintf("storage: batch arity mismatch: row %d, batch %d", len(row), len(b.Cols)))
	}
	for i := range row {
		b.Cols[i].appendValue(row[i])
		b.bytes += row[i].size()
	}
	b.n++
}

// AppendGather appends rows of an encoded chunk to the batch a column
// at a time: output column j takes chunk column srcCols[j] at each of
// the given row indexes. Each source column is decoded once per call —
// dictionary lookups, frame-of-reference adds or plain copies straight
// into the typed vectors — with no per-cell Value in between. Bytes
// accounting is exactly AppendRow's.
func (b *Batch) AppendGather(c *EncChunk, srcCols []int, rows []int32) {
	if len(srcCols) != len(b.Cols) {
		panic(fmt.Sprintf("storage: gather arity mismatch: %d source columns, batch %d", len(srcCols), len(b.Cols)))
	}
	for j, sc := range srcCols {
		src, dst := &c.Cols[sc], &b.Cols[j]
		checkKind(src.Kind, dst.Kind)
		switch {
		case src.Enc == EncDict && src.Kind == KStr:
			strs, n := src.Dict.strs, int64(0)
			for _, r := range rows {
				s := strs[src.Codes[r]]
				dst.Strs = append(dst.Strs, s)
				n += int64(len(s)) + 4
			}
			b.bytes += n
		case src.Enc == EncDict:
			ints := src.Dict.ints
			for _, r := range rows {
				dst.Ints = append(dst.Ints, ints[src.Codes[r]])
			}
			b.bytes += 8 * int64(len(rows))
		case src.Enc == EncFoR:
			for _, r := range rows {
				dst.Ints = append(dst.Ints, src.Ref+int64(src.Codes[r]))
			}
			b.bytes += 8 * int64(len(rows))
		default:
			b.bytes += gatherRaw(dst, src.Ints, src.Floats, src.Strs, rows)
		}
	}
	b.n += len(rows)
}

// AppendJoin appends joined rows: output row k is row li[k] of left
// followed by row ri[k] of right, so the batch's columns are left's
// then right's (the ConcatSchema layout). Columns gather one at a time;
// Bytes accounting is exactly AppendRow's.
func (b *Batch) AppendJoin(left *Batch, li []int32, right *Batch, ri []int32) {
	if len(left.Cols)+len(right.Cols) != len(b.Cols) {
		panic(fmt.Sprintf("storage: join arity mismatch: %d+%d columns, batch %d", len(left.Cols), len(right.Cols), len(b.Cols)))
	}
	if len(li) != len(ri) {
		panic(fmt.Sprintf("storage: join pair mismatch: %d left rows, %d right", len(li), len(ri)))
	}
	nl := len(left.Cols)
	for j := range left.Cols {
		b.bytes += gatherCol(&b.Cols[j], &left.Cols[j], li)
	}
	for j := range right.Cols {
		b.bytes += gatherCol(&b.Cols[nl+j], &right.Cols[j], ri)
	}
	b.n += len(li)
}

// AppendBatch appends every row of src, which must have the batch's
// column layout.
func (b *Batch) AppendBatch(src *Batch) {
	if len(src.Cols) != len(b.Cols) {
		panic(fmt.Sprintf("storage: batch arity mismatch: source %d, batch %d", len(src.Cols), len(b.Cols)))
	}
	for j := range src.Cols {
		s, d := &src.Cols[j], &b.Cols[j]
		checkKind(s.Kind, d.Kind)
		d.Ints = append(d.Ints, s.Ints...)
		d.Floats = append(d.Floats, s.Floats...)
		d.Strs = append(d.Strs, s.Strs...)
	}
	b.n += src.n
	b.bytes += src.bytes
}

func checkKind(src, dst Kind) {
	if src != dst {
		panic(fmt.Sprintf("storage: column kind mismatch: %s into %s", src, dst))
	}
}

// gatherCol appends src's cells at rows to dst and returns the bytes
// they account for.
func gatherCol(dst, src *ColVec, rows []int32) int64 {
	checkKind(src.Kind, dst.Kind)
	return gatherRaw(dst, src.Ints, src.Floats, src.Strs, rows)
}

// gatherRaw appends the cells at rows of a typed vector (the slice
// matching dst's kind) to dst and returns the bytes they account for.
func gatherRaw(dst *ColVec, ints []int64, floats []float64, strs []string, rows []int32) int64 {
	switch dst.Kind {
	case KInt:
		for _, r := range rows {
			dst.Ints = append(dst.Ints, ints[r])
		}
	case KFloat:
		for _, r := range rows {
			dst.Floats = append(dst.Floats, floats[r])
		}
	default:
		var n int64
		for _, r := range rows {
			s := strs[r]
			dst.Strs = append(dst.Strs, s)
			n += int64(len(s)) + 4
		}
		return n
	}
	return 8 * int64(len(rows))
}

// AppendValues appends one row given as individual values.
func (b *Batch) AppendValues(vals ...Value) { b.AppendRow(Row(vals)) }

// Row materializes row i (a copy).
func (b *Batch) Row(i int) Row {
	r := make(Row, len(b.Cols))
	for c := range b.Cols {
		r[c] = b.Cols[c].value(i)
	}
	return r
}

// Value returns the cell at (row, col) without materializing the row.
func (b *Batch) Value(row, col int) Value { return b.Cols[col].value(row) }

// Len returns the row count.
func (b *Batch) Len() int { return b.n }

// Bytes returns the approximate wire size.
func (b *Batch) Bytes() int64 { return b.bytes }

// Project returns a pooled batch containing only the named columns; the
// consumer frees it like any other batch.
func (b *Batch) Project(cols ...string) *Batch {
	idxs := make([]int, len(cols))
	outCols := make([]Column, len(cols))
	for i, name := range cols {
		idxs[i] = b.Schema.MustCol(name)
		outCols[i] = b.Schema.Cols[idxs[i]]
	}
	out := GetBatch(NewSchema(b.Schema.Name+"_proj", outCols...))
	for r := 0; r < b.n; r++ {
		for i, src := range idxs {
			v := b.Cols[src].value(r)
			out.Cols[i].appendValue(v)
			out.bytes += v.size()
		}
	}
	out.n = b.n
	return out
}

// ConcatSchema merges two schemas for join output, prefixing column names
// with each side's table name when they collide.
func ConcatSchema(name string, left, right *Schema) *Schema {
	cols := make([]Column, 0, left.NumCols()+right.NumCols())
	seen := make(map[string]bool)
	for _, c := range left.Cols {
		cols = append(cols, c)
		seen[c.Name] = true
	}
	for _, c := range right.Cols {
		n := c.Name
		if seen[n] {
			n = right.Name + "." + n
		}
		cols = append(cols, Column{Name: n, Kind: c.Kind})
		seen[n] = true
	}
	return NewSchema(name, cols...)
}
