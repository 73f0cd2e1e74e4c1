package olap

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"anydb/internal/core"
	"anydb/internal/sim"
	"anydb/internal/storage"
)

// keepSink is the flushSink stub, except that it keeps every emitted
// batch (the scan's partials) for the test to inspect and forward.
type keepSink struct {
	flushSink
	batches []*storage.Batch
}

func (c *keepSink) SendData(_ core.ACID, msg *core.DataMsg) {
	if msg.Batch != nil {
		c.batches = append(c.batches, msg.Batch)
	}
	core.FreeDataMsg(msg)
}

// oracleSchema is the table every grouping trial scans: candidate
// group columns of each kind, then aggregate sources of each kind.
var oracleSchema = storage.NewSchema("g",
	storage.Column{Name: "ki", Kind: storage.KInt},
	storage.Column{Name: "ks", Kind: storage.KStr},
	storage.Column{Name: "kf", Kind: storage.KFloat},
	storage.Column{Name: "vi", Kind: storage.KInt},
	storage.Column{Name: "vf", Kind: storage.KFloat},
	storage.Column{Name: "vs", Kind: storage.KStr})

// Group-column growth modes of an oracle table.
const (
	growNone = iota // every chunk draws from the same small ranges
	growDims        // ranges widen after chunk 0: dense dims overflow mid-pass
	growSeal        // the int range explodes: its dictionary seals mid-pass
	growWide        // too wide for the dense path from chunk 0 on
	growModes
)

// oracleTable fills one partition's table. Past the first chunk the
// group columns' value ranges may widen (grow), so the dictionaries grow
// while a pass is under way and a dense grouping sized at chunk 0
// overflows, or the int group column's dictionary seals, so a later
// chunk arrives frame-of-reference encoded. Under growWide the first
// chunk already holds more ints than the dictionary takes (so every
// chunk is frame-of-reference encoded) and more strings than the dense
// slab can pad, so a dense grouping is declined at its first chunk.
// Floats are quarter-integers, so every sum is exact in any order.
func oracleTable(rng *rand.Rand, rows int, grow int) *storage.Table {
	t := storage.NewTable(oracleSchema)
	for i := 0; i < rows; i++ {
		nI, nS := 3, 2
		if grow == growWide {
			nI, nS = 3000, 3000
		} else if i >= storage.ColChunkRows && grow != growNone {
			nI, nS = 40, 30
			if grow == growSeal {
				nI = 3000
			}
		}
		t.Append(storage.Row{
			storage.Int(int64(rng.Intn(nI)) - 5),
			storage.Str(fmt.Sprintf("s%02d", rng.Intn(nS))),
			storage.Float(float64(rng.Intn(8)) / 4),
			storage.Int(int64(rng.Intn(2001)) - 1000),
			storage.Float(float64(rng.Intn(4001)-2000) / 4),
			storage.Str(strconv.Itoa(rng.Intn(500))),
		})
	}
	return t
}

// oracleAggs are the aggregate candidates: every AggFn, over int, float
// and string sources where the function takes them.
var oracleAggs = []AggExpr{
	{Fn: AggCount},
	{Fn: AggSum, Col: "vi"}, {Fn: AggSum, Col: "vf"},
	{Fn: AggAvg, Col: "vi"}, {Fn: AggAvg, Col: "vf"},
	{Fn: AggMin, Col: "vi"}, {Fn: AggMax, Col: "vf"},
	{Fn: AggMin, Col: "vs"}, {Fn: AggMax, Col: "vs"}, {Fn: AggMin, Col: "ks"},
}

// refGroups is the row-at-a-time reference: one accumulator per group,
// keyed by the canonical encoding, every row folded in turn.
func refGroups(rows []storage.Row, groupIdx []int, aggs []AggExpr) (keys []string, vals map[string]storage.Row) {
	type acc struct {
		key   storage.Row
		count []int64
		sumI  []int64
		sumF  []float64
		ext   []storage.Value
		seen  []bool
	}
	groups := map[string]*acc{}
	for _, row := range rows {
		var kb strings.Builder
		for _, g := range groupIdx {
			switch v := row[g]; v.Kind {
			case storage.KInt:
				kb.WriteString(strconv.FormatInt(v.I, 10))
			case storage.KFloat:
				kb.WriteString(strconv.FormatFloat(v.F, 'g', -1, 64))
			default:
				kb.WriteString(v.S)
			}
			kb.WriteByte(0)
		}
		k := kb.String()
		a := groups[k]
		if a == nil {
			n := len(aggs)
			a = &acc{count: make([]int64, n), sumI: make([]int64, n), sumF: make([]float64, n),
				ext: make([]storage.Value, n), seen: make([]bool, n)}
			for _, g := range groupIdx {
				a.key = append(a.key, row[g])
			}
			groups[k] = a
			keys = append(keys, k)
		}
		for j, ag := range aggs {
			if ag.Fn == AggCount {
				a.count[j]++
				continue
			}
			v := row[oracleSchema.MustCol(ag.Col)]
			switch ag.Fn {
			case AggSum, AggAvg:
				a.count[j]++
				a.sumI[j] += v.I
				if v.Kind == storage.KFloat {
					a.sumF[j] += v.F
				} else {
					a.sumF[j] += float64(v.I)
				}
			case AggMin:
				if !a.seen[j] || v.Compare(a.ext[j]) < 0 {
					a.ext[j], a.seen[j] = v, true
				}
			case AggMax:
				if !a.seen[j] || v.Compare(a.ext[j]) > 0 {
					a.ext[j], a.seen[j] = v, true
				}
			}
		}
	}
	sort := slices.Clone(keys)
	slices.Sort(sort)
	vals = make(map[string]storage.Row, len(groups))
	for _, k := range sort {
		a := groups[k]
		row := slices.Clone(a.key)
		for j, ag := range aggs {
			var v storage.Value
			switch ag.Fn {
			case AggCount:
				v = storage.Int(a.count[j])
			case AggSum:
				if oracleSchema.Cols[oracleSchema.MustCol(ag.Col)].Kind == storage.KFloat {
					v = storage.Float(a.sumF[j])
				} else {
					v = storage.Int(a.sumI[j])
				}
			case AggAvg:
				v = storage.Float(a.sumF[j] / float64(a.count[j]))
			default:
				v = a.ext[j]
			}
			row = append(row, v)
		}
		vals[k] = row
	}
	return sort, vals
}

// refResult applies the sink's output shaping — SELECT order, ORDER BY,
// LIMIT — to the reference groups and cuts the batches.
func refResult(spec *SinkSpec, keys []string, vals map[string]storage.Row) [][]storage.Row {
	var out []storage.Row
	for _, k := range keys {
		row := make(storage.Row, len(spec.OutSrc))
		for i, src := range spec.OutSrc {
			row[i] = vals[k][src]
		}
		out = append(out, row)
	}
	if len(keys) == 0 && len(spec.GroupBy) == 0 {
		row := make(storage.Row, len(spec.OutKinds))
		for i, k := range spec.OutKinds {
			row[i] = storage.Value{Kind: k}
		}
		out = append(out, row)
	}
	slices.SortStableFunc(out, func(a, b storage.Row) int {
		for _, k := range spec.OrderBy {
			if c := a[k.Col].Compare(b[k.Col]); c != 0 {
				if k.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	if spec.Limit >= 0 && len(out) > spec.Limit {
		out = out[:spec.Limit]
	}
	var batches [][]storage.Row
	for i := 0; i < len(out); i += DefaultBatchRows {
		batches = append(batches, out[i:min(i+DefaultBatchRows, len(out))])
	}
	return batches
}

// checkResult compares a sink result with the reference batches: same
// batches, rows in the same order, equal values, equal Bytes.
func checkResult(t *testing.T, label string, res *QueryResult, want [][]storage.Row) {
	t.Helper()
	if len(res.Batches) != len(want) {
		t.Fatalf("%s: %d result batches, reference %d", label, len(res.Batches), len(want))
	}
	for bi, b := range res.Batches {
		if b.Len() != len(want[bi]) {
			t.Fatalf("%s: batch %d has %d rows, reference %d", label, bi, b.Len(), len(want[bi]))
		}
		ref := storage.NewBatch(b.Schema)
		for i, row := range want[bi] {
			ref.AppendRow(row)
			for c, v := range row {
				if got := b.Value(i, c); !got.Equal(v) {
					t.Fatalf("%s: batch %d row %d col %d = %v, reference %v", label, bi, i, c, got, v)
				}
			}
		}
		if b.Bytes() != ref.Bytes() {
			t.Fatalf("%s: batch %d Bytes %d, reference %d", label, bi, b.Bytes(), ref.Bytes())
		}
		storage.FreeBatch(b)
	}
}

// checkPartialOrder checks that a partial's rows are strictly ascending
// by packed dictionary code (packedOf, on the dense path) or by
// canonical group key.
func checkPartialOrder(t *testing.T, label string, b *storage.Batch, packedOf func(*storage.Batch, int) int) {
	t.Helper()
	nKeys := b.Schema.NumCols()
	for c, col := range b.Schema.Cols {
		if col.Name[0] == 'p' {
			nKeys = c
			break
		}
	}
	keyCols := iotaInts(nKeys)
	for i := 1; i < b.Len(); i++ {
		if packedOf != nil {
			if packedOf(b, i-1) >= packedOf(b, i) {
				t.Fatalf("%s: dense partial rows %d, %d out of packed-code order", label, i-1, i)
			}
		} else if string(encodeGroupKey(nil, b, i-1, keyCols)) >= string(encodeGroupKey(nil, b, i, keyCols)) {
			t.Fatalf("%s: partial rows %d, %d out of canonical-key order", label, i-1, i)
		}
	}
}

func iotaInts(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestGroupedAggMatchesRowReference drives random groupings through the
// flat group table on both sides — the shared scan's pushdown fold and
// partial emission, merged at the sink; and the sink's raw fold over
// random batches — and compares values, row order and Bytes with a
// row-at-a-time reference. Trials cover int, string and float keys, 0–3
// group columns, every AggFn (AVG and string MIN/MAX included), dense
// groupings that migrate to the key map mid-pass (a dictionary outgrowing
// the dense dims, or sealing so a later chunk is not dictionary-encoded),
// dense groupings declined at their first chunk (COUNT included: the
// declined chunk's rows all fold through the key map), and global
// aggregates over zero rows.
func TestGroupedAggMatchesRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	keyCols := []string{"ki", "ks", "kf"}
	migrated, declined, denseFinished, zeroGlobal := 0, 0, 0, 0
	for trial := 0; trial < 60; trial++ {
		parts := []*storage.Table{
			oracleTable(rng, 2*storage.ColChunkRows+rng.Intn(900), rng.Intn(growModes)),
			oracleTable(rng, storage.ColChunkRows+rng.Intn(900), rng.Intn(growModes)),
		}
		group := slices.Clone(keyCols)
		rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
		group = group[:trial%4]
		aggs := []AggExpr{oracleAggs[rng.Intn(len(oracleAggs))]}
		for len(aggs) < 4 && rng.Intn(2) == 0 {
			aggs = append(aggs, oracleAggs[rng.Intn(len(oracleAggs))])
		}
		var filters []Predicate
		switch rng.Intn(3) {
		case 1:
			filters = []Predicate{{Col: "vi", Kind: PredGEInt, MinI: int64(rng.Intn(1500)) - 1000}}
		case 2:
			if trial%8 == 0 {
				filters = []Predicate{{Col: "vi", Kind: PredGEInt, MinI: 5000}} // matches nothing
			}
		}
		dict := !slices.Contains(group, "kf") && rng.Intn(4) != 0

		// Sink output: every group column and aggregate, in a shuffled
		// SELECT order; sometimes ORDER BY and LIMIT.
		groupIdx := resolveCols(nil, oracleSchema, group)
		sinkSpec := &SinkSpec{Query: 1, In: 1, GroupBy: group, Aggs: aggs, Limit: -1}
		for i := 0; i < len(group)+len(aggs); i++ {
			sinkSpec.OutSrc = append(sinkSpec.OutSrc, i)
		}
		rng.Shuffle(len(sinkSpec.OutSrc), func(i, j int) {
			sinkSpec.OutSrc[i], sinkSpec.OutSrc[j] = sinkSpec.OutSrc[j], sinkSpec.OutSrc[i]
		})
		for i, src := range sinkSpec.OutSrc {
			sinkSpec.OutCols = append(sinkSpec.OutCols, fmt.Sprintf("c%d", i))
			var kind storage.Kind
			switch {
			case src < len(group):
				kind = oracleSchema.Cols[groupIdx[src]].Kind
			case aggs[src-len(group)].Fn == AggCount:
				kind = storage.KInt
			case aggs[src-len(group)].Fn == AggAvg:
				kind = storage.KFloat
			default:
				kind = oracleSchema.Cols[oracleSchema.MustCol(aggs[src-len(group)].Col)].Kind
			}
			sinkSpec.OutKinds = append(sinkSpec.OutKinds, kind)
		}
		if rng.Intn(3) == 0 {
			sinkSpec.OrderBy = []OrderKey{{Col: rng.Intn(len(sinkSpec.OutSrc)), Desc: rng.Intn(2) == 0}}
			sinkSpec.Limit = rng.Intn(50)
		}

		// Reference over the filtered rows, partition by partition.
		var rows []storage.Row
		for _, tb := range parts {
			tb.Scan(func(_ int32, row storage.Row) bool {
				if len(filters) == 0 || row[3].I >= filters[0].MinI {
					rows = append(rows, row)
				}
				return true
			})
		}
		keys, vals := refGroups(rows, groupIdx, aggs)
		want := refResult(sinkSpec, keys, vals)
		label := fmt.Sprintf("trial %d (group %v, aggs %v, dict %v, filters %v)", trial, group, aggs, dict, filters)
		if len(rows) == 0 && len(group) == 0 {
			zeroGlobal++
		}

		// Raw fold first (it reads the row heap, not the chunk cache),
		// over random batch sizes.
		raw := newSinkState(sinkSpec)
		ctx := &keepSink{flushSink: flushSink{costs: sim.DefaultCosts()}}
		for i := 0; i < len(rows); {
			n := min(1+rng.Intn(700), len(rows)-i)
			b := storage.GetBatch(oracleSchema)
			for _, row := range rows[i : i+n] {
				b.AppendRow(row)
			}
			raw.OnData(ctx, nil, &core.DataMsg{Batch: b})
			i += n
		}
		checkResult(t, label+" raw fold", raw.result(), want)

		// Pushdown: each partition's registration folds its chunks (built
		// lazily, in pass order, as the shared cursor does), emits one
		// partial, and the sink merges them.
		merge := *sinkSpec
		merge.MergePartials = true
		sink := newSinkState(&merge)
		for _, tb := range parts {
			r := newScanReg(tb, &SharedScanSpec{
				Query: 1, Filters: filters, GroupBy: group, Aggs: aggs, DictGroups: dict,
				Out: 1, To: 1, Producers: len(parts),
			})
			var match []int32
			for ci := 0; ci < tb.NumColChunks(); ci++ {
				wasDense, wasOK := r.dense != nil, r.denseOK
				chunk := tb.ColChunk(ci)
				match = matchChunk(chunk, r.preds, match)
				r.foldAgg(ctx, chunk, match)
				if wasDense && r.dense == nil {
					migrated++
				}
				if wasOK && !wasDense && !r.denseOK && slices.ContainsFunc(aggs, func(a AggExpr) bool { return a.Fn == AggCount }) {
					declined++
				}
			}
			// The partial's rows come out in packed-code order on the dense
			// path and in canonical-key order otherwise.
			var packedOf func(b *storage.Batch, i int) int
			if d := r.dense; d != nil {
				denseFinished++
				strd, dicts := slices.Clone(d.strd), slices.Clone(d.dicts)
				packedOf = func(b *storage.Batch, i int) int {
					p := 0
					for g := range strd {
						v := b.Value(i, g)
						code, _ := dicts[g].LookupStr(v.S)
						if v.Kind == storage.KInt {
							code, _ = dicts[g].LookupInt(v.I)
						}
						p += int(code) * strd[g]
					}
					return p
				}
			}
			before := len(ctx.batches)
			r.finish(ctx)
			if len(ctx.batches) > before && len(group) > 0 {
				checkPartialOrder(t, label, ctx.batches[before], packedOf)
			}
		}
		for _, p := range ctx.batches {
			ref := storage.NewBatch(p.Schema)
			for i := 0; i < p.Len(); i++ {
				ref.AppendRow(p.Row(i))
			}
			if p.Bytes() != ref.Bytes() {
				t.Fatalf("%s: partial Bytes %d, row-appended %d", label, p.Bytes(), ref.Bytes())
			}
			sink.OnData(ctx, nil, &core.DataMsg{Batch: p})
		}
		ctx.batches = nil
		checkResult(t, label+" pushdown", sink.result(), want)
	}
	if migrated == 0 {
		t.Fatal("no trial migrated a dense grouping to the key map mid-pass")
	}
	if declined == 0 {
		t.Fatal("no trial declined a dense COUNT grouping at its first matched chunk")
	}
	if denseFinished == 0 {
		t.Fatal("no trial finished a pass on the dense path")
	}
	if zeroGlobal == 0 {
		t.Fatal("no trial ran a global aggregate over zero rows")
	}
}

// TestGroupMergeAllocsGrowOnlyBySlabDoublings pins the flat group
// table's allocation shape: merging a grouped query's partials and
// finalizing it allocates per query, not per group. Going from 64 to
// 4096 groups (six doublings) may add allocations only for the slabs
// that double and for the key map, which a table past maxKeptKeys
// groups rebuilds per query — a handful per doubling — where one object
// per group (and its key and accumulator slices) would add thousands.
func TestGroupMergeAllocsGrowOnlyBySlabDoublings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under -race")
	}
	ctx := &flushSink{costs: sim.DefaultCosts()}
	allocs := func(groups int) float64 {
		q := newGroupMergeQuery(4, groups)
		return testing.AllocsPerRun(20, func() {
			if res := q.run(ctx); res.Rows != int64(groups) {
				t.Fatalf("merged %d groups, want %d", res.Rows, groups)
			}
		})
	}
	small, large := allocs(64), allocs(4096)
	const doublings, perDoubling = 6, 8
	t.Logf("allocs per merged query: %.1f at 64 groups, %.1f at 4096", small, large)
	if large-small > doublings*perDoubling {
		t.Fatalf("allocs per merged query grew by %.1f from 64 to 4096 groups; slab doublings allow %d",
			large-small, doublings*perDoubling)
	}
}
