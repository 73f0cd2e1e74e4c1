package olap

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"anydb/internal/core"
	"anydb/internal/sim"
	"anydb/internal/storage"
)

// This file implements the shared analytical scan (SharedDB's "one
// cursor, many queries" applied to AnyDB's operator plane) and the
// generic query sink that terminates every planned query.
//
// A SharedScanSpec does not start a private cursor of its own.
// It REGISTERS with the per-(table, partition) shared cursor living on
// the owning AC: the registration compiles its predicates against the
// table schema once, joins the pass at the cursor's current chunk, and
// detaches after seeing every chunk exactly once (one full circle).
// One driver continuation event advances the cursor one columnar chunk
// at a time — the chunk fetch, the event-plane hop, and the shared
// per-row scan charge are paid once per chunk regardless of how many
// registrations ride the pass; only each registration's own predicate
// evaluation and fold are per-query. Registrations carry private
// result state (a projection batch or a grouped-aggregate table), so
// detaching is just emitting it downstream.
//
// Safety under live repartitioning: queries hold a submission-plane
// registration (queryMask) from registration to completion, and a
// partition move drains that mask before the storage handoff — so no
// shared-scan registration can exist while a partition moves, and the
// driver additionally stops (and drops its continuation) the moment
// its registration list is empty.

// AggFn selects an aggregate function.
type AggFn uint8

const (
	AggCount AggFn = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

func (f AggFn) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	}
	return fmt.Sprintf("AggFn(%d)", uint8(f))
}

// AggExpr is one aggregate over a source column (empty for COUNT(*)).
type AggExpr struct {
	Fn  AggFn
	Col string
}

// SharedScanSpec registers one query with the shared cursor of a
// partition's table. Two modes:
//
//   - streaming (len(Aggs) == 0): matching rows are projected onto Cols
//     and pushed into Out in pooled batches, feeding joins or a
//     collecting sink;
//   - aggregate pushdown (len(Aggs) > 0): matching rows fold into a
//     grouped partial-aggregate table private to the registration, and
//     one partial batch (layout: group columns, then per-aggregate
//     cells — AVG carries sum+count) is emitted when the pass
//     completes. The sink merges partials with MergePartials.
type SharedScanSpec struct {
	Query   core.QueryID
	Table   storage.TableID
	Part    int
	Filters []Predicate // AND-composed
	Cols    []string    // streaming projection
	GroupBy []string    // pushdown grouping
	Aggs    []AggExpr   // pushdown aggregates
	// DictGroups marks the grouping dictionary-eligible (planner hint:
	// no float group columns), letting the scan fold matched chunks
	// into a dense accumulator indexed by packed dictionary codes
	// instead of probing a map per row. The scan still validates per
	// chunk and falls back to the map path when chunks are not
	// dictionary-encoded or the code space outgrows the dense table.
	DictGroups bool
	Out        core.StreamID
	To         core.ACID
	Producers  int
	BatchRows  int
}

// sharedKey addresses one shared cursor.
type sharedKey struct {
	table storage.TableID
	part  int
}

// compiledPred is a Predicate with its column resolved to a vector
// index, evaluated directly against encoded columnar chunks. Before a
// chunk is scanned, prepare translates the predicate into the chunk's
// encoding domain — a dictionary code, a code bitset, or a
// frame-of-reference delta bound — so the per-row test is an integer
// compare (or nothing at all, when the chunk-level answer is all/none).
type compiledPred struct {
	col    int
	kind   PredKind
	prefix string
	str    string
	minI   int64

	// Per-chunk prepared state (prepare): mode selects the row test;
	// code / bits / lo / hi are mode-specific operands.
	mode    predMode
	code    uint32        // modeEqCode/NeCode: dict code; modeEq/NeDelta: delta
	lo, hi  uint32        // modeGEDelta / modeLTDelta thresholds
	bits    []uint64      // modeBits: per-dictionary-code predicate results
	bitsFor *storage.Dict // dictionary bits was built against
	bitsLen int           // dictionary prefix covered by bits
}

// predMode is the prepared per-chunk evaluation strategy.
type predMode uint8

const (
	modeAll       predMode = iota // every row matches
	modeNone                      // no row matches
	modeEqCode                    // Codes[i] == code (dictionary)
	modeNeCode                    // Codes[i] != code (dictionary)
	modeBits                      // bits[Codes[i]] set (dictionary)
	modeGEDelta                   // Codes[i] >= lo (frame-of-reference)
	modeLTDelta                   // Codes[i] < hi (frame-of-reference)
	modeEqDelta                   // Codes[i] == code (frame-of-reference)
	modeNeDelta                   // Codes[i] != code (frame-of-reference)
	modeRawGE                     // Ints[i] >= minI
	modeRawLT                     // Ints[i] < minI
	modeRawEq                     // Ints[i] == minI
	modeRawNe                     // Ints[i] != minI
	modeRawEqStr                  // Strs[i] == str
	modeRawPrefix                 // Strs[i] starts with prefix
)

// prepare resolves the predicate against one chunk's column encoding.
func (p *compiledPred) prepare(c *storage.EncChunk) {
	if p.kind == PredNone {
		p.mode = modeAll
		return
	}
	v := &c.Cols[p.col]
	switch v.Enc {
	case storage.EncDict:
		p.prepareDict(v.Dict)
	case storage.EncFoR:
		p.prepareFoR(v.Ref)
	default:
		switch p.kind {
		case PredGEInt:
			p.mode = modeRawGE
		case PredLTInt:
			p.mode = modeRawLT
		case PredEqInt:
			p.mode = modeRawEq
		case PredNeInt:
			p.mode = modeRawNe
		case PredEqStr:
			p.mode = modeRawEqStr
		case PredPrefix:
			p.mode = modeRawPrefix
		default:
			panic("olap: unknown predicate kind")
		}
	}
}

// prepareDict compiles the predicate to dictionary-code membership:
// equality is one dictionary lookup (a miss means no chunk row can
// match), and prefix/range predicates become a bitset over the
// dictionary's codes — built once and extended incrementally as the
// dictionary grows, so a whole pass pays O(dict) once, not O(rows).
func (p *compiledPred) prepareDict(d *storage.Dict) {
	switch p.kind {
	case PredEqStr:
		if code, ok := d.LookupStr(p.str); ok {
			p.code, p.mode = code, modeEqCode
		} else {
			p.mode = modeNone
		}
	case PredEqInt:
		if code, ok := d.LookupInt(p.minI); ok {
			p.code, p.mode = code, modeEqCode
		} else {
			p.mode = modeNone
		}
	case PredNeInt:
		if code, ok := d.LookupInt(p.minI); ok {
			p.code, p.mode = code, modeNeCode
		} else {
			p.mode = modeAll
		}
	default: // PredPrefix, PredGEInt, PredLTInt
		p.extendBits(d)
		p.mode = modeBits
	}
}

// extendBits (re)builds the per-code predicate bitset for dictionary d,
// evaluating only codes assigned since the last call.
func (p *compiledPred) extendBits(d *storage.Dict) {
	n := d.Len()
	if p.bitsFor != d {
		p.bitsFor, p.bitsLen = d, 0
		p.bits = p.bits[:0]
	}
	for len(p.bits)*64 < n {
		p.bits = append(p.bits, 0)
	}
	for code := p.bitsLen; code < n; code++ {
		var ok bool
		switch p.kind {
		case PredPrefix:
			s := d.DecodeStr(uint32(code))
			ok = len(s) >= len(p.prefix) && s[:len(p.prefix)] == p.prefix
		case PredGEInt:
			ok = d.DecodeInt(uint32(code)) >= p.minI
		case PredLTInt:
			ok = d.DecodeInt(uint32(code)) < p.minI
		}
		if ok {
			p.bits[code>>6] |= 1 << (code & 63)
		}
	}
	p.bitsLen = n
}

// prepareFoR translates an int predicate into the chunk's delta domain
// (value = Ref + delta, delta in [0, 2³²)). Out-of-domain constants
// collapse to all/none at the chunk level.
func (p *compiledPred) prepareFoR(ref int64) {
	var diff uint64
	above := p.minI > ref
	if above {
		// Exact under two's-complement wraparound for any int64 pair.
		diff = uint64(p.minI) - uint64(ref)
	}
	switch p.kind {
	case PredGEInt:
		switch {
		case !above:
			p.mode = modeAll
		case diff > math.MaxUint32:
			p.mode = modeNone
		default:
			p.lo, p.mode = uint32(diff), modeGEDelta
		}
	case PredLTInt:
		switch {
		case !above:
			p.mode = modeNone
		case diff > math.MaxUint32:
			p.mode = modeAll
		default:
			p.hi, p.mode = uint32(diff), modeLTDelta
		}
	default: // PredEqInt, PredNeInt
		out := p.minI < ref || diff > math.MaxUint32
		if p.kind == PredEqInt {
			if out {
				p.mode = modeNone
			} else {
				p.code, p.mode = uint32(diff), modeEqDelta
			}
		} else {
			if out {
				p.mode = modeAll
			} else {
				p.code, p.mode = uint32(diff), modeNeDelta
			}
		}
	}
}

// matchAt tests row i of the prepared chunk column.
func (p *compiledPred) matchAt(v *storage.EncVec, i int) bool {
	switch p.mode {
	case modeAll:
		return true
	case modeNone:
		return false
	case modeEqCode:
		return v.Codes[i] == p.code
	case modeNeCode:
		return v.Codes[i] != p.code
	case modeBits:
		c := v.Codes[i]
		return p.bits[c>>6]&(1<<(c&63)) != 0
	case modeGEDelta:
		return v.Codes[i] >= p.lo
	case modeLTDelta:
		return v.Codes[i] < p.hi
	case modeEqDelta:
		return v.Codes[i] == p.code
	case modeNeDelta:
		return v.Codes[i] != p.code
	case modeRawGE:
		return v.Ints[i] >= p.minI
	case modeRawLT:
		return v.Ints[i] < p.minI
	case modeRawEq:
		return v.Ints[i] == p.minI
	case modeRawNe:
		return v.Ints[i] != p.minI
	case modeRawEqStr:
		return v.Strs[i] == p.str
	default: // modeRawPrefix
		s := v.Strs[i]
		return len(s) >= len(p.prefix) && s[:len(p.prefix)] == p.prefix
	}
}

// compilePred resolves pred against schema, validating kinds so a
// mis-typed predicate fails at registration, not mid-chunk.
func compilePred(schema *storage.Schema, pred Predicate) compiledPred {
	cp := compiledPred{kind: pred.Kind, prefix: pred.Prefix, str: pred.Str, minI: pred.MinI}
	if pred.Kind == PredNone {
		return cp
	}
	cp.col = schema.MustCol(pred.Col)
	kind := schema.Cols[cp.col].Kind
	switch pred.Kind {
	case PredPrefix, PredEqStr:
		if kind != storage.KStr {
			panic(fmt.Sprintf("olap: string predicate on %s column %s.%s", kind, schema.Name, pred.Col))
		}
	default:
		if kind != storage.KInt {
			panic(fmt.Sprintf("olap: int predicate on %s column %s.%s", kind, schema.Name, pred.Col))
		}
	}
	return cp
}

// scanReg is one query's registration with a shared cursor.
type scanReg struct {
	spec  *SharedScanSpec
	preds []compiledPred
	sig   string // canonical predicate signature, for match sharing

	// Pass window: the registration joined at some chunk and detaches
	// after `total` chunks (the chunk count at attach — chunks appended
	// later belong to later passes). next is the chunk it consumes
	// next; done counts consumed chunks.
	next, done, total int

	// Streaming mode.
	outIdx []int
	out    *storage.Batch

	// Aggregate-pushdown mode: the grouped state (drawn from the pool at
	// registration, returned at finish).
	groupIdx []int
	aggIdx   []int // source column per aggregate; -1 for COUNT(*)
	partial  *storage.Schema
	table    *groupTable

	// Dense grouped-aggregate fast path (spec.DictGroups): group codes
	// pack into one slot per combination, and the slot maps to a group
	// id — a bounds-checked array index per row instead of a key encode
	// + map probe. The slab is drawn from the pool at the first
	// dictionary-encoded chunk and abandoned (groups registered in the
	// table's map) if a chunk arrives with a different encoding or a
	// code outgrows the slack-padded dims.
	denseOK bool // hinted, enabled, and not abandoned
	dense   *denseSlab
}

// denseSlotCap bounds the dense accumulator's group-combination space.
// Past it (high-cardinality or many-column groupings) the map path is
// the right tool anyway.
const denseSlotCap = 4096

// denseSlab is the dense path's slot table: ids[slot] is the group id
// + 1 of a packed code combination (0: untouched), and slots lists the
// packed slot of each group, by id. Slabs are recycled across
// registrations through densePool; release clears only the touched
// slots.
type denseSlab struct {
	ids   [denseSlotCap]int32
	size  int // slots in use: the product of dims
	slots []int32
	dims  []int // per group column: code bound (dictionary size + slack)
	strd  []int // per group column: packing stride
	dicts []*storage.Dict
}

var densePool = sync.Pool{New: func() any { return new(denseSlab) }}

// bySlot returns the ids of the touched slots in slot (packed code)
// order, in buf's storage.
func (d *denseSlab) bySlot(buf []int32) []int32 {
	buf = buf[:0]
	for _, id := range d.ids[:d.size] {
		if id > 0 {
			buf = append(buf, id-1)
		}
	}
	return buf
}

// release clears the slab's touched slots and returns it to the pool.
func (d *denseSlab) release() {
	for _, s := range d.slots {
		d.ids[s] = 0
	}
	d.slots = d.slots[:0]
	clear(d.dicts)
	densePool.Put(d)
}

// groupedFastPath gates the dense grouped-aggregate path globally; the
// benchmark suite flips it off to measure the map-probe baseline.
var groupedFastPath atomic.Bool

func init() { groupedFastPath.Store(true) }

// SetGroupedAggFastPath toggles the dense grouped-aggregate fast path
// for newly registered scans and returns the previous setting. On by
// default; exists so benchmarks can pin either path.
func SetGroupedAggFastPath(on bool) bool { return groupedFastPath.Swap(on) }

// sharedScan is the per-(table, partition) shared cursor state, owned
// by the partition's AC.
type sharedScan struct {
	key    sharedKey
	cursor int
	regs   []*scanReg
	ev     *core.Event // the driver continuation, re-sent per chunk
}

// matchFor returns the rows of chunk (the chunk of the current step)
// matching preds, whose signature is sig: evaluated on the first call of
// the step for sig, shared by the later ones. Each step hands out the
// Worker's buffers in first-use order, so it keeps as many as the most
// signatures one chunk has served — at most the registrations riding a
// cursor — and they outlive the busy period, already grown.
func (w *Worker) matchFor(sig string, chunk *storage.EncChunk, preds []compiledPred) []int32 {
	if i, ok := w.stepSigs[sig]; ok {
		return w.matchBufs[i]
	}
	if w.stepSigs == nil {
		w.stepSigs = make(map[string]int)
	}
	i := len(w.stepSigs)
	if i == len(w.matchBufs) {
		w.matchBufs = append(w.matchBufs, nil)
	}
	w.matchBufs[i] = matchChunk(chunk, preds, w.matchBufs[i])
	w.stepSigs[sig] = i
	return w.matchBufs[i]
}

// attachShared registers spec with the shared cursor, creating (and
// starting) the driver when the cursor is idle. The install event is
// recycled as the driver continuation when one is needed.
func (w *Worker) attachShared(ctx core.Context, ev *core.Event, spec *SharedScanSpec) {
	t := w.DB.Partition(spec.Part).TableByID(spec.Table)
	r := newScanReg(t, spec)
	r.total = t.NumColChunks()
	if r.total == 0 {
		// Empty table: the pass is already over; the install event dies.
		r.finish(ctx)
		core.FreeEvent(ev)
		return
	}

	key := sharedKey{table: spec.Table, part: spec.Part}
	ss := w.shared[key]
	if ss != nil {
		// Join the in-flight pass at the cursor's current position; the
		// install event is dead (a continuation is already circulating).
		r.next = ss.cursor
		if r.next >= r.total {
			r.next = 0
		}
		ss.regs = append(ss.regs, r)
		core.FreeEvent(ev)
		return
	}
	if w.shared == nil {
		w.shared = make(map[sharedKey]*sharedScan)
	}
	ss = &sharedScan{key: key, ev: ev}
	ss.regs = append(ss.regs, r)
	w.shared[key] = ss
	// Reuse the install event as the driver continuation.
	ev.Payload = ss
	ctx.Send(ctx.Self(), ev)
}

// newScanReg compiles spec against table t: predicates, the streaming
// projection or the partial-aggregate layout, and the private result
// state. The pass window is the caller's to set.
func newScanReg(t *storage.Table, spec *SharedScanSpec) *scanReg {
	r := &scanReg{spec: spec}
	r.preds = make([]compiledPred, 0, len(spec.Filters))
	for _, f := range spec.Filters {
		r.preds = append(r.preds, compilePred(t.Schema, f))
	}
	r.sig = predSignature(r.preds)
	if spec.BatchRows <= 0 {
		spec.BatchRows = DefaultBatchRows
	}
	if len(spec.Aggs) == 0 {
		r.outIdx = make([]int, len(spec.Cols))
		outCols := make([]storage.Column, len(spec.Cols))
		for i, c := range spec.Cols {
			r.outIdx[i] = t.Schema.MustCol(c)
			outCols[i] = t.Schema.Cols[r.outIdx[i]]
		}
		r.out = storage.GetBatch(storage.NewSchema(t.Schema.Name+"_scan", outCols...))
	} else {
		r.groupIdx = resolveCols(nil, t.Schema, spec.GroupBy)
		r.aggIdx = make([]int, len(spec.Aggs))
		for j, a := range spec.Aggs {
			r.aggIdx[j] = -1
			if a.Fn != AggCount {
				r.aggIdx[j] = t.Schema.MustCol(a.Col)
			}
		}
		layout := partialLayout(t.Schema, r.groupIdx, r.aggIdx, spec.Aggs)
		r.partial = storage.NewSchema(t.Schema.Name+"_partial", layout...)
		r.table = getGroupTable(spec.Aggs, len(r.groupIdx), layout)
		r.denseOK = spec.DictGroups && len(spec.GroupBy) > 0 && groupedFastPath.Load()
	}
	return r
}

// step advances the shared cursor one chunk: every registration whose
// window includes the chunk evaluates its predicates over the columnar
// chunk and folds matches into its private state. Registrations that
// completed their circle detach; the driver stops when none remain.
func (ss *sharedScan) step(ctx core.Context, w *Worker) {
	if w.shared[ss.key] != ss {
		core.FreeEvent(ss.ev) // superseded or stopped: stale continuation, drop it
		return
	}
	if len(ss.regs) == 0 {
		delete(w.shared, ss.key)
		core.FreeEvent(ss.ev)
		return
	}
	t := w.DB.Partition(ss.key.part).TableByID(ss.key.table)
	m := 0
	for _, r := range ss.regs {
		if r.total > m {
			m = r.total
		}
	}
	if ss.cursor >= m {
		ss.cursor = 0
	}
	ci := ss.cursor
	costs := ctx.Costs()
	var chunk *storage.EncChunk
	for i := 0; i < len(ss.regs); {
		r := ss.regs[i]
		if r.next != ci {
			i++
			continue
		}
		if chunk == nil {
			// The chunk fetch and the per-row scan charge are shared:
			// paid once however many registrations ride this pass.
			chunk = t.ColChunk(ci)
			ctx.Charge(costs.ScanRow * sim.Time(chunk.Len()))
			clear(w.stepSigs)
		}
		// Registrations with the same predicate signature share one
		// evaluation of this chunk.
		match := w.matchFor(r.sig, chunk, r.preds)
		if len(r.spec.Aggs) == 0 {
			r.foldStream(ctx, chunk, match)
		} else {
			r.foldAgg(ctx, chunk, match)
		}
		r.done++
		r.next++
		if r.next >= r.total {
			r.next = 0
		}
		if r.done >= r.total {
			r.finish(ctx)
			ss.regs = append(ss.regs[:i], ss.regs[i+1:]...)
			continue
		}
		i++
	}
	ss.cursor = ci + 1
	if len(ss.regs) == 0 {
		delete(w.shared, ss.key)
		core.FreeEvent(ss.ev)
		return
	}
	ctx.Send(ctx.Self(), ss.ev)
}

// predSignature canonically encodes a compiled predicate list so
// registrations with identical filters can share match results. Columns
// are already resolved to indexes and predicates are AND-composed in
// plan order, so a byte-equal signature means row-equal matches.
func predSignature(preds []compiledPred) string {
	if len(preds) == 0 {
		return ""
	}
	buf := make([]byte, 0, 16*len(preds))
	for i := range preds {
		p := &preds[i]
		buf = strconv.AppendInt(buf, int64(p.kind), 10)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(p.col), 10)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, p.minI, 10)
		buf = append(buf, ':')
		buf = append(buf, p.prefix...)
		buf = append(buf, 0)
		buf = append(buf, p.str...)
		buf = append(buf, 0)
	}
	return string(buf)
}

// matchChunk returns the row indexes of chunk c passing all preds,
// reusing buf. Each predicate prepares against the chunk's encoding
// first, so chunk-level all/none answers skip row work entirely: the
// first selective predicate scans the full chunk, later ones filter the
// survivors in place.
func matchChunk(c *storage.EncChunk, preds []compiledPred, buf []int32) []int32 {
	buf = buf[:0]
	n := c.Len()
	dense := true // no selective predicate applied yet: buf is implicitly 0..n-1
	for pi := range preds {
		p := &preds[pi]
		p.prepare(c)
		switch p.mode {
		case modeAll:
			continue
		case modeNone:
			return buf[:0]
		}
		v := &c.Cols[p.col]
		if dense {
			for i := 0; i < n; i++ {
				if p.matchAt(v, i) {
					buf = append(buf, int32(i))
				}
			}
			dense = false
			continue
		}
		w := 0
		for _, m := range buf {
			if p.matchAt(v, int(m)) {
				buf[w] = m
				w++
			}
		}
		buf = buf[:w]
	}
	if dense {
		for i := 0; i < n; i++ {
			buf = append(buf, int32(i))
		}
	}
	return buf
}

// foldStream gathers the matched rows, projected, into the
// registration's output batch a column at a time, splitting the match
// list at BatchRows boundaries so every emitted batch holds exactly
// BatchRows rows (the tail flushes at finish).
func (r *scanReg) foldStream(ctx core.Context, chunk *storage.EncChunk, match []int32) {
	if len(match) == 0 {
		return
	}
	n := len(match)
	for len(match) > 0 {
		take := min(len(match), r.spec.BatchRows-r.out.Len())
		r.out.AppendGather(chunk, r.outIdx, match[:take])
		match = match[take:]
		if r.out.Len() >= r.spec.BatchRows {
			r.flush(ctx, false)
		}
	}
	if !ctx.Offloaded(r.spec.To) {
		ctx.Charge(ctx.Costs().PartitionRow * sim.Time(n))
	}
}

// foldAgg folds the matched rows into the registration's group table:
// group ids first (all 0 for a global aggregate, a slab index on the
// dense path, a key-map probe otherwise), then each aggregate a column
// at a time.
func (r *scanReg) foldAgg(ctx core.Context, chunk *storage.EncChunk, match []int32) {
	if len(match) == 0 {
		return
	}
	ctx.Charge(ctx.Costs().AggRow * sim.Time(len(match)))
	t := r.table
	if len(r.groupIdx) == 0 {
		t.foldChunk(chunk, match, t.globalIDs(len(match)), r.aggIdx)
		return
	}
	if r.denseOK {
		ids, ok := r.denseIDs(chunk, match) // a prefix of match, possibly empty, when !ok
		t.foldChunk(chunk, match[:len(ids)], ids, r.aggIdx)
		if ok {
			return
		}
		// The fast path bowed out (non-dictionary chunk, dimension
		// overflow, or too many group combinations — denseOK is now
		// false): register its groups in the key map and fold the
		// remaining rows there.
		if r.dense != nil {
			t.registerAll()
			r.dense.release()
			r.dense = nil
		}
		match = match[len(ids):]
	}
	t.sizeMap(len(match))
	ids := t.rowIDs[:0]
	for _, m := range match {
		ids = append(ids, t.chunkGroup(chunk, int(m), r.groupIdx))
	}
	t.rowIDs = ids
	t.foldChunk(chunk, match, ids, r.aggIdx)
}

// initDense draws a slab and sizes it from the group columns'
// dictionaries, padding each dimension with slack so codes assigned
// later in the pass (the dictionary grows as dirtied chunks rebuild)
// still land in range. Reports false when a group column is not
// dictionary-encoded in this chunk or the combination space exceeds
// denseSlotCap.
func (r *scanReg) initDense(c *storage.EncChunk) bool {
	d := densePool.Get().(*denseSlab)
	d.dims, d.strd, d.dicts = d.dims[:0], d.strd[:0], d.dicts[:0]
	size := 1
	for _, col := range r.groupIdx {
		v := &c.Cols[col]
		if v.Enc != storage.EncDict {
			d.release()
			return false
		}
		dim := v.Dict.Len() + v.Dict.Len()/2 + 8
		d.dims, d.strd, d.dicts = append(d.dims, dim), append(d.strd, size), append(d.dicts, v.Dict)
		size *= dim
		if size > denseSlotCap {
			d.release()
			return false
		}
	}
	d.size, r.dense = size, d
	return true
}

// denseIDs resolves the matched rows' group ids through the dense slab,
// creating groups on first touch, and returns them (in the table's
// row-id scratch). ok=false means the fast path just died (denseOK
// cleared): the ids cover only a prefix of match, and the caller folds
// the rest via the key map.
func (r *scanReg) denseIDs(c *storage.EncChunk, match []int32) (ids []int32, ok bool) {
	if r.dense == nil && !r.initDense(c) {
		r.denseOK = false
		return nil, false
	}
	d := r.dense
	for g, col := range r.groupIdx {
		v := &c.Cols[col]
		if v.Enc != storage.EncDict || v.Dict != d.dicts[g] {
			r.denseOK = false
			return nil, false
		}
	}
	t := r.table
	ids = t.rowIDs[:0]
	defer func() { t.rowIDs = ids }()
	if len(r.groupIdx) == 1 {
		// The headline shape — GROUP BY one dictionary column: the code
		// is the slot.
		codes, dim := c.Cols[r.groupIdx[0]].Codes, d.dims[0]
		for _, m := range match {
			code := int(codes[m])
			if code >= dim {
				r.denseOK = false
				return ids, false
			}
			id := d.ids[code] - 1
			if id < 0 {
				id = r.denseGroup(c, m, code)
			}
			ids = append(ids, id)
		}
		return ids, true
	}
	for _, m := range match {
		packed := 0
		for g, col := range r.groupIdx {
			code := int(c.Cols[col].Codes[m])
			if code >= d.dims[g] {
				r.denseOK = false
				return ids, false
			}
			packed += code * d.strd[g]
		}
		id := d.ids[packed] - 1
		if id < 0 {
			id = r.denseGroup(c, m, packed)
		}
		ids = append(ids, id)
	}
	return ids, true
}

// denseGroup creates the group of chunk row m, whose codes pack to slot.
func (r *scanReg) denseGroup(c *storage.EncChunk, m int32, slot int) int32 {
	t, d := r.table, r.dense
	id := t.addGroup()
	for k, col := range r.groupIdx {
		t.cols[k].AppendValue(c.Value(int(m), col))
	}
	d.ids[slot] = id + 1
	d.slots = append(d.slots, int32(slot))
	return id
}

// finish detaches the registration: streaming mode flushes the tail
// batch with the Last marker; pushdown mode emits the partial-aggregate
// batch and Last. Partial rows are ordered deterministically by
// content — packed dictionary code on the dense path, canonical group
// key otherwise — and gather from the table a column at a time.
func (r *scanReg) finish(ctx core.Context) {
	if len(r.spec.Aggs) == 0 {
		r.flush(ctx, true)
		return
	}
	var b *storage.Batch
	if t := r.table; t.n > 0 {
		var order []int32
		switch {
		case len(r.groupIdx) == 0:
			order = iota32(t.rowIDs, 1)
		case r.dense != nil:
			order = r.dense.bySlot(t.rowIDs)
		default:
			order = t.byKey(t.rowIDs)
		}
		b = storage.GetBatch(r.partial)
		b.AppendVecs(t.cols, order)
	}
	if r.dense != nil {
		r.dense.release()
		r.dense = nil
	}
	r.table.release()
	r.table = nil
	msg := core.GetDataMsg()
	msg.Stream, msg.Query, msg.Last, msg.Producers = r.spec.Out, r.spec.Query, true, r.spec.Producers
	msg.Batch = b
	ctx.SendData(r.spec.To, msg)
}

// flush emits the registration's accumulated streaming batch as one
// pooled data message. The scratch batch is recycled, not reallocated:
// the consumer frees each emitted batch at its death point, so
// steady-state flushing allocates nothing.
func (r *scanReg) flush(ctx core.Context, last bool) {
	if r.out.Len() == 0 && !last {
		return
	}
	msg := core.GetDataMsg()
	msg.Stream, msg.Query, msg.Last, msg.Producers = r.spec.Out, r.spec.Query, last, r.spec.Producers
	if r.out.Len() > 0 {
		msg.Batch = r.out
		if last {
			r.out = nil
		} else {
			r.out = storage.GetBatch(msg.Batch.Schema)
		}
	} else {
		storage.FreeBatch(r.out)
		r.out = nil
	}
	ctx.SendData(r.spec.To, msg)
}
