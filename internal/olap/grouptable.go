package olap

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"anydb/internal/storage"
)

// groupTable is the grouped-aggregate state of one operator: a shared
// scan registration's pushdown fold, or a sink merging partials or
// folding raw rows. It is flat and typed, so it is cheap to create and
// to merge (SharedDB's per-query state) and keeps its accumulators in
// typed columns (C-Store): a group is an int32 id, and every per-group
// value is one cell of a column vector indexed by that id. No object is
// allocated per group.
//
// The columns are exactly the partial-aggregate layout: the group
// columns, then each aggregate's accumulator columns — COUNT its count,
// SUM an int or float sum, AVG a float sum and a count, MIN/MAX the
// current value (plus a seen flag per group). A partial therefore emits
// with one gather over the columns and merges column by column.
//
// Ids come from one map on the canonical group key (appendKeyVal), or
// from the caller: every row of a global aggregate is group 0 with no
// lookup (globalIDs), and the scan's dense path maps packed dictionary
// codes to ids through its own slab, registering canonical keys only if
// it migrates to the map.
type groupTable struct {
	aggs   []AggExpr
	nKeys  int              // leading group columns of cols
	cols   []storage.ColVec // partial layout; cell g of each belongs to group g
	aggCol []int            // first column of each aggregate
	seen   [][]bool         // MIN/MAX aggregates: per group, whether the cell holds a value
	n      int              // groups

	ids    map[string]int32 // canonical key → group id
	keys   []string         // canonical key of each registered group, by id
	arena  []byte           // backing bytes of keys (see register)
	keyBuf []byte           // scratch: key encoding
	rowIDs []int32          // scratch: the group of each folded row
}

// Tables recycle through tablePool with their vectors' capacity, so a
// steady stream of queries allocates no per-query grouped state; a
// recycled vector restarts at length 0, so a large earlier grouping
// costs a later query nothing there. The key map is the exception:
// clearing it walks every slot it ever grew. A map that held more than
// maxKeptKeys keys is therefore dropped at release instead of cleared.
// Measured on a 2-core Xeon, clearing a map that held 1<<10 keys takes
// ~3.5 µs (1<<13: ~26 µs), against ~200 µs for the cheapest olap-burst
// query; the largest grouping of the perfbench workloads holds 676 keys
// (GROUP BY c_state), so every one of their maps is kept.
var tablePool sync.Pool

const maxKeptKeys = 1 << 10

// getGroupTable returns an empty table for aggs over the partial layout
// (nKeys group columns, then the aggregates' accumulator columns).
func getGroupTable(aggs []AggExpr, nKeys int, layout []storage.Column) *groupTable {
	t, _ := tablePool.Get().(*groupTable)
	if t == nil {
		t = &groupTable{}
	}
	t.aggs, t.nKeys, t.n = aggs, nKeys, 0
	t.cols = slices.Grow(t.cols[:0], len(layout))[:len(layout)]
	for i, c := range layout {
		v := &t.cols[i]
		v.Kind, v.Ints, v.Floats, v.Strs = c.Kind, v.Ints[:0], v.Floats[:0], v.Strs[:0]
	}
	t.aggCol = t.aggCol[:0]
	t.seen = slices.Grow(t.seen[:0], len(aggs))[:len(aggs)]
	col := nKeys
	for j, a := range aggs {
		t.aggCol = append(t.aggCol, col)
		t.seen[j] = t.seen[j][:0]
		col++
		if a.Fn == AggAvg {
			col++
		}
	}
	return t
}

// release returns the table to the pool. The caller must have copied
// out everything it emits (batches gather cells by value). The map is
// cleared (or dropped) before the arena its keys view is reused.
func (t *groupTable) release() {
	for i := range t.cols {
		clear(t.cols[i].Strs) // the pool must not pin row data
	}
	if len(t.ids) > maxKeptKeys {
		t.ids = nil
	} else {
		clear(t.ids)
	}
	t.keys, t.arena, t.aggs = t.keys[:0], t.arena[:0], nil
	tablePool.Put(t)
}

// partialLayout returns the partial-aggregate columns of aggs grouped by
// groupIdx over source schema src (aggIdx: each aggregate's source
// column, -1 for COUNT(*)): the group columns with their source kinds,
// then per aggregate its accumulator columns.
func partialLayout(src *storage.Schema, groupIdx, aggIdx []int, aggs []AggExpr) []storage.Column {
	cols := make([]storage.Column, 0, len(groupIdx)+2*len(aggs))
	for i, g := range groupIdx {
		cols = append(cols, storage.Column{Name: fmt.Sprintf("g%d", i), Kind: src.Cols[g].Kind})
	}
	for j, a := range aggs {
		switch a.Fn {
		case AggCount:
			cols = append(cols, storage.Column{Name: fmt.Sprintf("p%d", j), Kind: storage.KInt})
		case AggAvg:
			cols = append(cols,
				storage.Column{Name: fmt.Sprintf("p%d_s", j), Kind: storage.KFloat},
				storage.Column{Name: fmt.Sprintf("p%d_c", j), Kind: storage.KInt})
		default:
			cols = append(cols, storage.Column{Name: fmt.Sprintf("p%d", j), Kind: src.Cols[aggIdx[j]].Kind})
		}
	}
	return cols
}

// addGroup appends a group with zeroed accumulators and returns its id.
// The caller appends the group's key values to the key columns.
func (t *groupTable) addGroup() int32 {
	for c := t.nKeys; c < len(t.cols); c++ {
		v := &t.cols[c]
		v.AppendValue(storage.Value{Kind: v.Kind})
	}
	for j, a := range t.aggs {
		if a.Fn == AggMin || a.Fn == AggMax {
			t.seen[j] = append(t.seen[j], false)
		}
	}
	t.n++
	return int32(t.n - 1)
}

// sizeMap creates the key map on first use, sized from the first batch
// (a recycled table keeps its cleared map).
func (t *groupTable) sizeMap(hint int) {
	if t.ids == nil {
		t.ids = make(map[string]int32, hint)
	}
}

// group returns the id of the group with canonical key t.keyBuf,
// creating it if new (created reports that the caller must append the
// key values).
func (t *groupTable) group() (id int32, created bool) {
	if id, ok := t.ids[string(t.keyBuf)]; ok {
		return id, false
	}
	id = t.addGroup()
	t.register(t.keyBuf)
	return id, true
}

// register records key as the canonical key of the next unregistered
// group (groups register in id order). The map key is carved out of an
// append-only arena instead of being allocated per group: bytes once
// written are never rewritten — growth copies into a fresh array and
// older keys keep the old one alive — so the string views stay
// immutable for as long as the table lives.
func (t *groupTable) register(key []byte) {
	off := len(t.arena)
	t.arena = append(t.arena, key...)
	k := unsafe.String(unsafe.SliceData(t.arena[off:]), len(key))
	t.ids[k] = int32(len(t.keys))
	t.keys = append(t.keys, k)
}

// registerAll registers the canonical key of every group created
// without one (the dense path's groups), encoded from the key columns
// exactly as the map path encodes rows, so both halves of a migrated
// pass merge as one group set.
func (t *groupTable) registerAll() {
	t.sizeMap(t.n)
	for g := len(t.keys); g < t.n; g++ {
		t.keyBuf = t.keyBuf[:0]
		for k := 0; k < t.nKeys; k++ {
			t.keyBuf = appendKeyVal(t.keyBuf, t.cols[k].Value(g))
		}
		t.register(t.keyBuf)
	}
}

// chunkGroup returns the group of row i of chunk c (group columns
// cols), creating it if new.
func (t *groupTable) chunkGroup(c *storage.EncChunk, i int, cols []int) int32 {
	t.keyBuf = encodeChunkKey(t.keyBuf[:0], c, i, cols)
	id, created := t.group()
	if created {
		for k, col := range cols {
			t.cols[k].AppendValue(c.Value(i, col))
		}
	}
	return id
}

// batchGroup returns the group of row r of batch b (group columns
// cols), creating it if new.
func (t *groupTable) batchGroup(b *storage.Batch, r int, cols []int) int32 {
	t.keyBuf = encodeGroupKey(t.keyBuf[:0], b, r, cols)
	id, created := t.group()
	if created {
		for k, col := range cols {
			t.cols[k].AppendValue(b.Value(r, col))
		}
	}
	return id
}

// globalIDs returns n zero ids in the table's row-id scratch: every
// row of a global aggregate belongs to group 0, created on first use.
func (t *groupTable) globalIDs(n int) []int32 {
	if t.n == 0 {
		t.addGroup()
	}
	ids := slices.Grow(t.rowIDs[:0], n)[:n]
	clear(ids)
	t.rowIDs = ids
	return ids
}

// foldValue folds one input value of aggregate j into group g (COUNT
// folds through count instead: it reads no values).
func (t *groupTable) foldValue(j int, g int32, v storage.Value) {
	c := &t.cols[t.aggCol[j]]
	switch t.aggs[j].Fn {
	case AggSum:
		if c.Kind == storage.KInt {
			c.Ints[g] += v.I
		} else {
			c.Floats[g] += v.F
		}
	case AggAvg:
		if v.Kind == storage.KInt {
			c.Floats[g] += float64(v.I)
		} else {
			c.Floats[g] += v.F
		}
		t.cols[t.aggCol[j]+1].Ints[g]++
	default:
		t.foldExtreme(j, g, v)
	}
}

// foldExtreme folds v into MIN/MAX aggregate j of group g.
func (t *groupTable) foldExtreme(j int, g int32, v storage.Value) {
	c, seen := &t.cols[t.aggCol[j]], t.seen[j]
	if seen[g] {
		cmp := v.Compare(c.Value(int(g)))
		if t.aggs[j].Fn == AggMin && cmp >= 0 || t.aggs[j].Fn == AggMax && cmp <= 0 {
			return
		}
	}
	c.Set(int(g), v)
	seen[g] = true
}

// foldChunk folds the matched rows of chunk c into the aggregates an
// aggregate at a time; match[k] belongs to group ids[k], and aggIdx
// gives each aggregate's source column.
func (t *groupTable) foldChunk(c *storage.EncChunk, match, ids []int32, aggIdx []int) {
	for j, a := range t.aggs {
		if a.Fn == AggCount {
			t.count(j, ids)
			continue
		}
		src := &c.Cols[aggIdx[j]]
		for k, m := range match {
			t.foldValue(j, ids[k], src.Value(int(m)))
		}
	}
}

// foldBatch is foldChunk over every row of a raw batch.
func (t *groupTable) foldBatch(b *storage.Batch, ids []int32, aggIdx []int) {
	for j, a := range t.aggs {
		if a.Fn == AggCount {
			t.count(j, ids)
			continue
		}
		src := &b.Cols[aggIdx[j]]
		for r := 0; r < b.Len(); r++ {
			t.foldValue(j, ids[r], src.Value(r))
		}
	}
}

// count adds one input row per id to COUNT aggregate j.
func (t *groupTable) count(j int, ids []int32) {
	cnt := t.cols[t.aggCol[j]].Ints
	for _, g := range ids {
		cnt[g]++
	}
}

// merge folds partial-layout batch b into the table column by column;
// row r belongs to group ids[r].
func (t *groupTable) merge(b *storage.Batch, ids []int32) {
	for j, a := range t.aggs {
		col := t.aggCol[j]
		dst, src := &t.cols[col], &b.Cols[col]
		n := b.Len()
		switch {
		case a.Fn == AggMin || a.Fn == AggMax:
			for r := 0; r < n; r++ {
				t.foldExtreme(j, ids[r], src.Value(r))
			}
		case dst.Kind == storage.KFloat: // float SUM, AVG's sum
			for r := 0; r < n; r++ {
				dst.Floats[ids[r]] += src.Floats[r]
			}
		default: // COUNT, int SUM
			for r := 0; r < n; r++ {
				dst.Ints[ids[r]] += src.Ints[r]
			}
		}
		if a.Fn == AggAvg {
			dst, src = &t.cols[col+1], &b.Cols[col+1]
			for r := 0; r < n; r++ {
				dst.Ints[ids[r]] += src.Ints[r]
			}
		}
	}
}

// byKey returns every group id, ordered by canonical key, in buf's
// storage. Every group must be registered.
func (t *groupTable) byKey(buf []int32) []int32 {
	buf = iota32(buf, t.n)
	slices.SortFunc(buf, func(a, b int32) int { return strings.Compare(t.keys[a], t.keys[b]) })
	return buf
}

// iota32 returns 0..n-1 in buf's storage.
func iota32(buf []int32, n int) []int32 {
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, int32(i))
	}
	return buf
}

// finalized returns aggregate j's result column: the accumulator itself,
// except AVG, whose sum/count quotient (0 over no rows) is computed here.
func (t *groupTable) finalized(j int) storage.ColVec {
	c := t.cols[t.aggCol[j]]
	if t.aggs[j].Fn != AggAvg {
		return c
	}
	cnt := t.cols[t.aggCol[j]+1].Ints
	avg := storage.ColVec{Kind: storage.KFloat, Floats: make([]float64, t.n)}
	for g := range avg.Floats {
		if cnt[g] != 0 {
			avg.Floats[g] = c.Floats[g] / float64(cnt[g])
		}
	}
	return avg
}

// appendKeyVal appends one value's canonical group-key encoding to buf
// (NUL-terminated; kinds are fixed per column so the encoding cannot
// collide across kinds). Every group-key producer — batch rows at the
// sink, encoded chunks at the scan, dense-path migration — goes through
// this one helper, so their keys merge identically.
func appendKeyVal(buf []byte, v storage.Value) []byte {
	switch v.Kind {
	case storage.KInt:
		buf = strconv.AppendInt(buf, v.I, 10)
	case storage.KFloat:
		buf = strconv.AppendFloat(buf, v.F, 'g', -1, 64)
	default:
		buf = append(buf, v.S...)
	}
	return append(buf, 0)
}

// encodeGroupKey appends the canonical encoding of the group columns of
// batch row i to buf.
func encodeGroupKey(buf []byte, b *storage.Batch, i int, cols []int) []byte {
	for _, c := range cols {
		buf = appendKeyVal(buf, b.Value(i, c))
	}
	return buf
}

// encodeChunkKey is encodeGroupKey over an encoded chunk: values decode
// per cell, so chunks with different encodings of the same table (a
// dictionary chunk next to a raw one) produce identical keys.
func encodeChunkKey(buf []byte, c *storage.EncChunk, i int, cols []int) []byte {
	for _, col := range cols {
		buf = appendKeyVal(buf, c.Value(i, col))
	}
	return buf
}
