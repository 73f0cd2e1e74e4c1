package olap_test

import (
	"testing"
	"time"

	"anydb/internal/core"
	"anydb/internal/olap"
	"anydb/internal/plan"
	"anydb/internal/sql"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// TestQueryRerouteAfterACFailure exercises the paper's §2.3 recovery
// direction for analytics on the real goroutine runtime: queries are pure
// consumers of (re-playable) beamed streams, so when the AC hosting the
// joins dies, the query is simply re-issued with a different routing —
// no state to rebuild, same result.
func TestQueryRerouteAfterACFailure(t *testing.T) {
	cfg := tpcc.Config{Warehouses: 4, Districts: 2, Customers: 80,
		Items: 40, InitOrders: 60, Seed: 13}.WithDefaults()
	db, _ := tpcc.NewDatabase(cfg)
	tpcc.Analyze(db)
	q3, err := sql.Parse(tpcc.Q3SQL)
	if err != nil {
		t.Fatal(err)
	}
	topo := core.NewTopology(db)
	s1 := topo.AddServer(4)
	s2 := topo.AddServer(4)
	for w := 0; w < cfg.Warehouses; w++ {
		topo.SetOwner(w, s1[w%4])
	}
	results := make(chan int64, 4)
	qo := &plan.QO{Topo: topo}
	eng := core.NewEngine(topo, func(ac *core.AC) {
		ac.Register(core.EvInstallOp, &olap.Worker{DB: db})
		ac.Register(core.EvQuery, qo)
	})
	defer eng.Stop()
	eng.SetClient(func(ev *core.Event) {
		if r, ok := ev.Payload.(*olap.QueryResult); ok {
			results <- r.Batches[0].Value(0, 0).I
			for _, b := range r.Batches {
				storage.FreeBatch(b)
			}
		}
	})
	parts := []int{0, 1, 2, 3}
	// issue compiles Q3 with join1 on join1 and join2 + the sink on
	// join2: the routing is the compute list handed to the planner.
	issue := func(qid core.QueryID, join1, join2 core.ACID) {
		p, err := plan.CompileSQL(db.Catalog, q3, qid, parts, []core.ACID{join1, join2}, core.ClientAC)
		if err != nil {
			t.Fatal(err)
		}
		p.Beam = plan.BeamAll
		eng.Inject(s2[3], &core.Event{Kind: core.EvQuery, Query: qid, Payload: p})
	}

	// Baseline result on healthy ACs.
	issue(1, s2[0], s2[1])
	var want int64
	select {
	case want = <-results:
	case <-time.After(10 * time.Second):
		t.Fatal("healthy query timed out")
	}
	if oracle := tpcc.ReferenceQ3(db, cfg); want != oracle {
		t.Fatalf("healthy run = %d, oracle %d", want, oracle)
	}

	// Kill the join host, then issue a query routed at the dead AC: it
	// can never complete (its events and data are dropped).
	eng.KillAC(s2[0])
	issue(2, s2[0], s2[1])
	select {
	case r := <-results:
		t.Fatalf("query on dead AC returned %d", r)
	case <-time.After(100 * time.Millisecond):
		// expected: no result
	}

	// Failure detected (timeout above): re-issue the SAME query with the
	// joins routed to a surviving AC — the architecture-less recovery
	// move. The result matches the pre-failure run.
	issue(3, s2[2], s2[1])
	select {
	case got := <-results:
		if got != want {
			t.Fatalf("rerouted query = %d, want %d", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rerouted query timed out")
	}
}
