// Package olap implements AnyDB's analytical operators as AnyComponent
// behaviors: shared scans that actively push columnar batches into data
// streams (sharedscan.go), hash joins whose build and probe sides are
// separate streams (so either can be beamed ahead of time, §4), and the
// generic sink that terminates every query (sink.go). Operators are
// installed by EvInstallOp events; which AC they land on — co-located
// with storage (aggregated) or on another server (disaggregated) — is
// purely a routing decision.
package olap

import (
	"fmt"

	"anydb/internal/core"
	"anydb/internal/storage"
)

// PredKind selects a scan predicate.
type PredKind uint8

const (
	// PredNone passes every row.
	PredNone PredKind = iota
	// PredPrefix keeps rows whose string column starts with Prefix.
	PredPrefix
	// PredGEInt keeps rows whose int column is >= MinI.
	PredGEInt
	// PredLTInt keeps rows whose int column is < MinI.
	PredLTInt
	// PredEqInt keeps rows whose int column equals MinI.
	PredEqInt
	// PredNeInt keeps rows whose int column differs from MinI.
	PredNeInt
	// PredEqStr keeps rows whose string column equals Str.
	PredEqStr
)

// Predicate is a single-column filter (the paper's query needs prefix and
// range predicates; richer trees live in the plan package).
type Predicate struct {
	Col    string
	Kind   PredKind
	Prefix string
	Str    string
	MinI   int64
}

// JoinSpec instructs an AC to hash-join two incoming streams. The build
// side is consumed entirely first (NeedClosed semantics); probe batches
// stream through afterwards — any probe data beamed early waits staged at
// the AC.
type JoinSpec struct {
	Query    core.QueryID
	Build    core.StreamID
	BuildKey []string // join key columns in the build batch schema
	Probe    core.StreamID
	ProbeKey []string
	// Out carries the concatenated build+probe rows of every match.
	Out       core.StreamID
	To        core.ACID
	Producers int
	// Notify receives EvOpDone events at build completion and probe
	// completion (Figure 6's build/probe marks); core.NoAC disables them.
	Notify core.ACID
	Label  string
}

// QueryResult is the payload of EvQueryDone.
type QueryResult struct {
	Query core.QueryID
	// Rows is the result-row count.
	Rows int64
	// Cols and Batches carry the result set: pooled columnar batches,
	// in order, whose consumer frees them (or hands them to anydb.Rows,
	// which frees as the caller iterates).
	Cols    []string
	Batches []*storage.Batch
	// Truncated reports a result cut at CollectCap rows.
	Truncated bool
}

// CollectCap bounds result sets.
const CollectCap = 16384

// DefaultBatchRows is the target batch granularity for data streams.
const DefaultBatchRows = 1024

// OpDone is the payload of EvOpDone.
type OpDone struct {
	Query core.QueryID
	Label string // e.g. "join1/build", "join1/probe"
}

// Worker is the AC behavior executing installed operators; register it
// for EvInstallOp on every AC. The shared map holds the AC's live
// shared-scan cursors (sharedscan.go); it is only ever touched by the
// owning AC's handler, so it needs no lock.
type Worker struct {
	DB *storage.Database

	shared map[sharedKey]*sharedScan
}

// OnEvent implements core.Behavior.
func (w *Worker) OnEvent(ctx core.Context, ac *core.AC, ev *core.Event) {
	switch spec := ev.Payload.(type) {
	case *SharedScanSpec:
		w.attachShared(ctx, ev, spec)
	case *sharedScan:
		spec.step(ctx, w)
	case *JoinSpec:
		newJoin(ctx, ac, spec)
		core.FreeEvent(ev)
	case *SinkSpec:
		newSink(ctx, ac, spec)
		core.FreeEvent(ev)
	default:
		panic(fmt.Sprintf("olap: unknown operator spec %T", ev.Payload))
	}
}

// joinState is a two-phase hash join bound to one AC.
type joinState struct {
	spec *JoinSpec
	// build accumulates every build-side row in arrival order (incoming
	// batches are copied in and freed at once); probe output gathers
	// from it by row index.
	build *storage.Batch
	// ht maps a build key to the first and last build row holding it;
	// next chains each row to the following one with the same key, so a
	// key's matches replay in build-arrival order.
	ht   map[joinKey]joinChain
	next []int32
	out  *storage.Batch

	// Key-column indexes, resolved per batch schema (scan producers on
	// different partitions each send their own schema instance).
	buildSchema, probeSchema *storage.Schema
	buildIdx, probeIdx       []int

	// Probe scratch: the (build row, probe row) pairs of matches not
	// yet gathered into out.
	li, ri []int32
}

type joinChain struct{ first, last int32 }

type joinKey struct {
	a, b, c int64
}

func keyOf(batch *storage.Batch, row int, cols []int) joinKey {
	var k joinKey
	for i, c := range cols {
		v := batch.Cols[c].Ints[row]
		switch i {
		case 0:
			k.a = v
		case 1:
			k.b = v
		default:
			k.c = v
		}
	}
	return k
}

func newJoinState(spec *JoinSpec) *joinState {
	return &joinState{spec: spec, ht: make(map[joinKey]joinChain)}
}

func newJoin(ctx core.Context, ac *core.AC, spec *JoinSpec) {
	j := newJoinState(spec)
	// Consume the build side first; staged (beamed) batches replay
	// immediately inside Subscribe.
	ac.Subscribe(ctx, spec.Build, (*joinBuildSink)(j))
}

// joinBuildSink and joinProbeSink give the two phases distinct OnData
// methods over the same state.
type joinBuildSink joinState

func (j *joinBuildSink) OnData(ctx core.Context, ac *core.AC, msg *core.DataMsg) {
	st := (*joinState)(j)
	if msg.Batch != nil {
		st.addBuild(ctx, msg.Batch, msg.Prehashed)
	}
	if msg.Last {
		if st.spec.Notify != core.NoAC {
			done := core.GetEvent()
			done.Kind, done.Query = core.EvOpDone, st.spec.Query
			done.Payload = &OpDone{Query: st.spec.Query, Label: st.spec.Label + "/build"}
			ctx.Send(st.spec.Notify, done)
		}
		// Now attach the probe side; beamed probe data replays here.
		ac.Subscribe(ctx, st.spec.Probe, (*joinProbeSink)(j))
	}
}

// addBuild copies one build batch into the accumulated build side,
// frees it, and links its rows into the hash table.
func (st *joinState) addBuild(ctx core.Context, b *storage.Batch, prehashed bool) {
	buildCost := ctx.Costs().HashBuildRow
	if prehashed {
		// DPI flows hash rows in flight (§4 co-processor).
		buildCost = buildCost * 3 / 4
	}
	if st.build == nil {
		st.build = storage.GetBatch(b.Schema)
	}
	base := st.build.Len()
	st.build.AppendBatch(b)
	if st.buildSchema != b.Schema {
		st.buildIdx = resolveCols(st.buildIdx, b.Schema, st.spec.BuildKey)
		st.buildSchema = b.Schema
	}
	for r := 0; r < b.Len(); r++ {
		ctx.Charge(buildCost)
		k := keyOf(b, r, st.buildIdx)
		row := int32(base + r)
		st.next = append(st.next, -1)
		if c, ok := st.ht[k]; ok {
			st.next[c.last] = row
			st.ht[k] = joinChain{c.first, row}
		} else {
			st.ht[k] = joinChain{row, row}
		}
	}
	storage.FreeBatch(b)
}

type joinProbeSink joinState

func (j *joinProbeSink) OnData(ctx core.Context, ac *core.AC, msg *core.DataMsg) {
	st := (*joinState)(j)
	spec := st.spec
	if msg.Batch != nil {
		st.probe(ctx, msg.Batch, msg.Prehashed)
	}
	if msg.Last {
		st.emit(ctx, true)
		// The join is over: release the build side and the hash table.
		storage.FreeBatch(st.build)
		st.build, st.ht, st.next = nil, nil, nil
		if spec.Notify != core.NoAC {
			done := core.GetEvent()
			done.Kind, done.Query = core.EvOpDone, spec.Query
			done.Payload = &OpDone{Query: spec.Query, Label: spec.Label + "/probe"}
			ctx.Send(spec.Notify, done)
		}
	}
}

// probe joins one probe batch against the built table and frees it.
// Matches collect as (build row, probe row) pairs and gather into the
// output batch a column at a time; the output emits once it holds at
// least DefaultBatchRows rows, checked after each matching probe row.
func (st *joinState) probe(ctx core.Context, b *storage.Batch, prehashed bool) {
	probeCost := ctx.Costs().HashProbeRow
	if prehashed {
		probeCost = probeCost * 3 / 4
	}
	if st.probeSchema != b.Schema {
		st.probeIdx = resolveCols(st.probeIdx, b.Schema, st.spec.ProbeKey)
		st.probeSchema = b.Schema
	}
	if st.out == nil {
		st.out = storage.GetBatch(outSchema(st, b.Schema))
	}
	li, ri := st.li[:0], st.ri[:0]
	for r := 0; r < b.Len(); r++ {
		ctx.Charge(probeCost)
		c, ok := st.ht[keyOf(b, r, st.probeIdx)]
		if !ok {
			continue
		}
		for m := c.first; m >= 0; m = st.next[m] {
			li = append(li, m)
			ri = append(ri, int32(r))
		}
		if st.out.Len()+len(li) >= DefaultBatchRows {
			st.out.AppendJoin(st.build, li, b, ri)
			li, ri = li[:0], ri[:0]
			st.emit(ctx, false)
		}
	}
	if len(li) > 0 {
		st.out.AppendJoin(st.build, li, b, ri)
	}
	st.li, st.ri = li[:0], ri[:0]
	// The gathers copied every cell out, so the probe batch dies here.
	storage.FreeBatch(b)
}

// emit forwards the accumulated output batch (if any) as one pooled
// data message; the downstream consumer recycles both.
func (st *joinState) emit(ctx core.Context, last bool) {
	msg := core.GetDataMsg()
	msg.Stream, msg.Query, msg.Last, msg.Producers = st.spec.Out, st.spec.Query, last, st.spec.Producers
	if st.out != nil && st.out.Len() > 0 {
		msg.Batch = st.out
		if last {
			st.out = nil
		} else {
			st.out = storage.GetBatch(msg.Batch.Schema)
		}
	} else if last {
		storage.FreeBatch(st.out)
		st.out = nil
	}
	ctx.SendData(st.spec.To, msg)
}

func outSchema(st *joinState, probe *storage.Schema) *storage.Schema {
	if st.build == nil {
		return probe
	}
	return storage.ConcatSchema("join_out", st.build.Schema, probe)
}

// resolveCols resolves column names against s into dst's storage.
func resolveCols(dst []int, s *storage.Schema, names []string) []int {
	dst = dst[:0]
	for _, n := range names {
		dst = append(dst, s.MustCol(n))
	}
	return dst
}
