package olap_test

import (
	"math/rand"
	"sort"
	"testing"

	"anydb/internal/core"
	"anydb/internal/olap"
	"anydb/internal/sim"
	"anydb/internal/storage"
)

// joinRig wires one join operator on a single-AC cluster and feeds it
// hand-made batches; a collecting sink gathers the output's probe tags,
// or, once an EvControl event subscribes it, a recorder keeps the
// join's output batches as emitted.
type joinRig struct {
	cl   *core.SimCluster
	ac   core.ACID
	out  []int64
	done bool
	rec  batchRecorder
}

// batchRecorder subscribes to the join output stream and keeps every
// batch, so tests see the join's own batch boundaries.
type batchRecorder struct {
	batches []*storage.Batch
	done    bool
}

func (r *batchRecorder) OnData(_ core.Context, _ *core.AC, msg *core.DataMsg) {
	if msg.Batch != nil {
		r.batches = append(r.batches, msg.Batch)
	}
	if msg.Last {
		r.done = true
	}
}

func newJoinRig(t *testing.T) *joinRig {
	t.Helper()
	db := storage.NewDatabase(1,
		storage.NewSchema("t", storage.Column{Name: "x", Kind: storage.KInt}))
	topo := core.NewTopology(db)
	ids := topo.AddServer(2)
	r := &joinRig{ac: ids[0]}
	r.cl = core.NewSimCluster(topo, sim.DefaultCosts(), func(ac *core.AC) {
		ac.Register(core.EvInstallOp, &olap.Worker{DB: db})
		ac.Register(core.EvControl, core.BehaviorFunc(func(ctx core.Context, ac *core.AC, _ *core.Event) {
			ac.Subscribe(ctx, 3, &r.rec)
		}))
	})
	r.cl.SetClient(func(_ sim.Time, ev *core.Event) {
		if res, ok := ev.Payload.(*olap.QueryResult); ok {
			for _, b := range res.Batches {
				for i := 0; i < b.Len(); i++ {
					r.out = append(r.out, b.Value(i, 0).I)
				}
				storage.FreeBatch(b)
			}
			r.done = true
		}
	})
	spec := &olap.JoinSpec{
		Query: 1,
		Build: 1, BuildKey: []string{"bk"},
		Probe: 2, ProbeKey: []string{"pk"},
		Out: 3, To: ids[0], Producers: 1,
		Notify: core.NoAC, Label: "j",
	}
	r.cl.Inject(ids[0], &core.Event{Kind: core.EvInstallOp, Query: 1, Payload: spec}, 0)
	return r
}

// send feeds vals into stream as batches of per rows, injected at
// increasing times from at; each row's tag is its index in vals.
func (r *joinRig) send(stream core.StreamID, col string, vals []int64, per int, at sim.Time) {
	if len(vals) == 0 {
		r.cl.InjectData(r.ac, &core.DataMsg{Stream: stream, Last: true, Producers: 1}, at)
		return
	}
	for i := 0; i < len(vals); i += per {
		end := min(i+per, len(vals))
		r.cl.InjectData(r.ac, &core.DataMsg{
			Stream: stream,
			Batch:  intBatch("b", col, vals[i:end], i),
			Last:   end == len(vals), Producers: 1,
		}, at+sim.Time(i))
	}
}

func intBatch(name, col string, vals []int64, base int) *storage.Batch {
	b := storage.NewBatch(storage.NewSchema(name,
		storage.Column{Name: col, Kind: storage.KInt},
		storage.Column{Name: col + "_tag", Kind: storage.KInt}))
	for i, v := range vals {
		b.AppendValues(storage.Int(v), storage.Int(int64(base+i)))
	}
	return b
}

// TestJoinMatchesNestedLoopReference drives random build/probe multisets
// through the streamed hash join and compares against a nested loop.
func TestJoinMatchesNestedLoopReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		nb, np := rng.Intn(30), rng.Intn(40)
		build := make([]int64, nb)
		probe := make([]int64, np)
		for i := range build {
			build[i] = int64(rng.Intn(8))
		}
		for i := range probe {
			probe[i] = int64(rng.Intn(8))
		}
		r := newJoinRig(t)
		// Split build/probe into several batches to exercise chunking.
		r.send(1, "bk", build, 7, 10)
		r.send(2, "pk", probe, 7, 5) // probe partly beamed before build done
		// A collector on the join output: the probe tag column keeps
		// its name in the concatenated schema (bk vs pk never collide).
		r.cl.Inject(r.ac, &core.Event{Kind: core.EvInstallOp, Query: 1, Payload: &olap.SinkSpec{
			Query: 1, In: 3, Cols: []string{"pk_tag"},
			OutCols: []string{"pk_tag"}, OutKinds: []storage.Kind{storage.KInt},
			Limit: -1, Notify: core.ClientAC,
		}}, 0)
		r.cl.Run()
		if !r.done {
			t.Fatalf("trial %d: join never completed", trial)
		}

		// Reference.
		var want []int64 // probe tags of emitted rows (with multiplicity)
		bset := make(map[int64]int)
		for _, b := range build {
			bset[b]++
		}
		for i, p := range probe {
			for k := 0; k < bset[p]; k++ {
				want = append(want, int64(i))
			}
		}
		got := r.out
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: tag mismatch at %d: %d vs %d", trial, i, got[i], want[i])
			}
		}
	}
}

// TestJoinOrderAndBatchesMatchRowReference pins the join's output
// order, not just its multiset: with duplicate build keys spread over
// several build batches, every output batch must hold the same rows in
// the same order as a row-at-a-time reference — probe rows in arrival
// order, each followed by its build matches in build-arrival order —
// cut at the same boundaries (an emit once the output holds at least
// DefaultBatchRows rows, checked after each matching probe row).
func TestJoinOrderAndBatchesMatchRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	build := make([]int64, 130)
	probe := make([]int64, 260)
	for i := range build {
		build[i] = int64(rng.Intn(6))
	}
	for i := range probe {
		probe[i] = int64(rng.Intn(8)) // keys 6 and 7 never match
	}
	r := newJoinRig(t)
	r.cl.Inject(r.ac, &core.Event{Kind: core.EvControl}, 0)
	r.send(1, "bk", build, 37, 10)
	r.send(2, "pk", probe, 50, 5)
	r.cl.Run()
	if !r.rec.done {
		t.Fatal("join never completed")
	}

	// Reference: (build tag, probe tag) pairs, cut into batches.
	type pair struct{ b, p int64 }
	var want [][]pair
	var cur []pair
	for p, pk := range probe {
		matched := false
		for b, bk := range build {
			if bk == pk {
				cur = append(cur, pair{int64(b), int64(p)})
				matched = true
			}
		}
		if matched && len(cur) >= olap.DefaultBatchRows {
			want, cur = append(want, cur), nil
		}
	}
	if len(cur) > 0 {
		want = append(want, cur)
	}
	if len(want) < 3 {
		t.Fatalf("reference has %d batches; the test needs several", len(want))
	}

	if len(r.rec.batches) != len(want) {
		t.Fatalf("join emitted %d batches, reference %d", len(r.rec.batches), len(want))
	}
	for bi, b := range r.rec.batches {
		s := b.Schema
		bk, bt, pk, pt := s.MustCol("bk"), s.MustCol("bk_tag"), s.MustCol("pk"), s.MustCol("pk_tag")
		if b.Len() != len(want[bi]) {
			t.Fatalf("batch %d: %d rows, reference %d", bi, b.Len(), len(want[bi]))
		}
		for i, w := range want[bi] {
			got := pair{b.Value(i, bt).I, b.Value(i, pt).I}
			if got != w || b.Value(i, bk).I != build[w.b] || b.Value(i, pk).I != probe[w.p] {
				t.Fatalf("batch %d row %d: (bk %d, tag %d, pk %d, tag %d), want tags %v",
					bi, i, b.Value(i, bk).I, got.b, b.Value(i, pk).I, got.p, w)
			}
		}
		storage.FreeBatch(b)
	}
}
