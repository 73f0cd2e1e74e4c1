package storage

import (
	"fmt"
	"testing"
)

// gatherTestTable builds a table whose chunks carry every column
// encoding: chunk 0 has a dictionary int column, a frame-of-reference
// int, a raw wide-range int, a dictionary string, a raw float and a raw
// string (its dictionary sealed up front); chunk 1 pushes the
// dictionary int column past the cap, so chunk 0 keeps decoding through
// a sealed dictionary while chunk 1 falls back to frame-of-reference.
func gatherTestTable(t *testing.T) *Table {
	t.Helper()
	schema := NewSchema("enc",
		Column{Name: "grow", Kind: KInt},
		Column{Name: "seq", Kind: KInt},
		Column{Name: "wide", Kind: KInt},
		Column{Name: "state", Kind: KStr},
		Column{Name: "ratio", Kind: KFloat},
		Column{Name: "note", Kind: KStr},
	)
	tb := NewTable(schema)
	tb.dict(5).sealed = true
	row := func(i int, grow int64) Row {
		return Row{
			Int(grow),
			Int(int64(1000 + i)),
			Int(int64(i) * (1 << 33)),
			Str(fmt.Sprintf("s%d", i%7)),
			Float(float64(i) / 3),
			Str(fmt.Sprintf("note-%d", i*i%97)),
		}
	}
	for i := 0; i < ColChunkRows; i++ {
		tb.Append(row(i, int64(i%9)))
	}
	tb.ColChunk(0) // built before the dictionary seals
	for i := ColChunkRows; i < ColChunkRows+maxIntDictCodes+50; i++ {
		tb.Append(row(i, int64(i)))
	}
	tb.ColChunk(1)

	c0, c1 := tb.ColChunk(0), tb.ColChunk(1)
	want0 := []EncKind{EncDict, EncFoR, EncRaw, EncDict, EncRaw, EncRaw}
	for col, want := range want0 {
		if got := c0.Cols[col].Enc; got != want {
			t.Fatalf("chunk 0 col %d: enc = %d, want %d", col, got, want)
		}
	}
	if !c0.Cols[0].Dict.Sealed() {
		t.Fatal("chunk 0's int dictionary did not seal")
	}
	if got := c1.Cols[0].Enc; got != EncFoR {
		t.Fatalf("chunk 1 col 0: enc = %d, want EncFoR", got)
	}
	return tb
}

// sameBatch fails unless got and want hold equal cells, lengths and
// Bytes.
func sameBatch(t *testing.T, what string, got, want *Batch) {
	t.Helper()
	if got.Len() != want.Len() || got.Bytes() != want.Bytes() {
		t.Fatalf("%s: len/bytes = %d/%d, want %d/%d", what, got.Len(), got.Bytes(), want.Len(), want.Bytes())
	}
	for i := 0; i < want.Len(); i++ {
		for c := range want.Cols {
			if g, w := got.Value(i, c), want.Value(i, c); !g.Equal(w) {
				t.Fatalf("%s: cell (%d,%d) = %v, want %v", what, i, c, g, w)
			}
		}
	}
}

// TestAppendGatherMatchesRowReference gathers every encoding through
// AppendGather and compares the batch with the row-at-a-time reference
// (EncChunk.Value + AppendRow) for empty, partial and full match lists,
// including a gather split across batch boundaries.
func TestAppendGatherMatchesRowReference(t *testing.T) {
	tb := gatherTestTable(t)
	projections := [][]int{
		{0, 1, 2, 3, 4, 5},
		{5, 3, 0},
		{4},
	}
	for ci := 0; ci < tb.NumColChunks(); ci++ {
		c := tb.ColChunk(ci)
		all := make([]int32, c.Len())
		for i := range all {
			all[i] = int32(i)
		}
		var partial []int32
		for i := 1; i < c.Len(); i += 3 {
			partial = append(partial, int32(i))
		}
		matches := map[string][]int32{"empty": nil, "partial": partial, "full": all}
		for _, proj := range projections {
			cols := make([]Column, len(proj))
			for j, sc := range proj {
				cols[j] = tb.Schema.Cols[sc]
			}
			schema := NewSchema("proj", cols...)
			reference := func(rows []int32) *Batch {
				b := NewBatch(schema)
				row := make(Row, len(proj))
				for _, r := range rows {
					for j, sc := range proj {
						row[j] = c.Value(int(r), sc)
					}
					b.AppendRow(row)
				}
				return b
			}
			for name, rows := range matches {
				what := fmt.Sprintf("chunk %d proj %v %s", ci, proj, name)
				got := GetBatch(schema)
				got.AppendGather(c, proj, rows)
				sameBatch(t, what, got, reference(rows))
				FreeBatch(got)

				// Split at a batch boundary: the head fills one batch, the
				// tail starts the next, and appending onto a non-empty
				// batch continues where the earlier gather stopped.
				const batchRows = 1000
				cut := min(len(rows), batchRows)
				head, tail := NewBatch(schema), NewBatch(schema)
				head.AppendGather(c, proj, rows[:cut/2])
				head.AppendGather(c, proj, rows[cut/2:cut])
				tail.AppendGather(c, proj, rows[cut:])
				sameBatch(t, what+" head", head, reference(rows[:cut]))
				sameBatch(t, what+" tail", tail, reference(rows[cut:]))
			}
		}
	}
}

// TestAppendJoinAndBatchMatchRowReference checks the batch-to-batch
// kernels against row-at-a-time concatenation: AppendJoin's output row
// k is left row li[k] followed by right row ri[k], and AppendBatch
// appends a batch verbatim.
func TestAppendJoinAndBatchMatchRowReference(t *testing.T) {
	left := NewBatch(NewSchema("l",
		Column{Name: "k", Kind: KInt}, Column{Name: "name", Kind: KStr}))
	right := NewBatch(NewSchema("r",
		Column{Name: "k", Kind: KInt}, Column{Name: "amt", Kind: KFloat}, Column{Name: "tag", Kind: KStr}))
	for i := 0; i < 10; i++ {
		left.AppendValues(Int(int64(i%4)), Str(fmt.Sprintf("name-%d", i*7)))
	}
	for i := 0; i < 12; i++ {
		right.AppendValues(Int(int64(i%4)), Float(float64(i)/4), Str(fmt.Sprintf("t%d", i)))
	}
	schema := ConcatSchema("j", left.Schema, right.Schema)
	var li, ri []int32
	want := NewBatch(schema)
	for r := 0; r < right.Len(); r++ {
		for l := 0; l < left.Len(); l++ {
			if left.Value(l, 0).I == right.Value(r, 0).I {
				li, ri = append(li, int32(l)), append(ri, int32(r))
				want.AppendRow(append(left.Row(l), right.Row(r)...))
			}
		}
	}
	got := NewBatch(schema)
	got.AppendJoin(left, li[:5], right, ri[:5])
	got.AppendJoin(left, li[5:], right, ri[5:])
	sameBatch(t, "AppendJoin", got, want)

	again := NewBatch(schema)
	again.AppendBatch(got)
	again.AppendBatch(NewBatch(schema))
	sameBatch(t, "AppendBatch", again, want)
	again.AppendBatch(want)
	if again.Len() != 2*want.Len() || again.Bytes() != 2*want.Bytes() {
		t.Fatalf("AppendBatch twice: len/bytes = %d/%d, want %d/%d",
			again.Len(), again.Bytes(), 2*want.Len(), 2*want.Bytes())
	}
}

// TestAppendVecsMatchesRowReference: gathering rows from loose typed
// vectors — in any order, repeated, across two calls, onto a non-empty
// batch — yields the cells and Bytes that AppendRow of the same rows
// does.
func TestAppendVecsMatchesRowReference(t *testing.T) {
	schema := NewSchema("v",
		Column{Name: "s", Kind: KStr}, Column{Name: "i", Kind: KInt}, Column{Name: "f", Kind: KFloat})
	vecs := []ColVec{{Kind: KStr}, {Kind: KInt}, {Kind: KFloat}}
	for i := 0; i < 9; i++ {
		vecs[0].AppendValue(Str(fmt.Sprintf("key-%d", i*i)))
		vecs[1].AppendValue(Int(int64(i - 4)))
		vecs[2].AppendValue(Float(float64(i) / 8))
	}
	rows := []int32{8, 0, 3, 3, 5, 1}
	want, got := NewBatch(schema), NewBatch(schema)
	want.AppendValues(Str("first"), Int(1), Float(2))
	got.AppendValues(Str("first"), Int(1), Float(2))
	for _, r := range rows {
		row := make(Row, len(vecs))
		for c := range vecs {
			row[c] = vecs[c].Value(int(r))
		}
		want.AppendRow(row)
	}
	got.AppendVecs(vecs, rows[:2])
	got.AppendVecs(vecs, rows[2:])
	sameBatch(t, "AppendVecs", got, want)
}
