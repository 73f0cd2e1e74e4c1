// Package bench regenerates every figure of the paper's evaluation:
// Figure 1 (evolving workload), Figure 5 (OLTP execution strategies) and
// Figure 6 (data beaming), plus ablations. Engines run on the
// virtual-time kernel; the README's "Regenerating the paper's figures"
// section indexes the experiments.
package bench

import (
	"anydb/internal/adapt"
	"anydb/internal/core"
	"anydb/internal/olap"
	"anydb/internal/oltp"
	"anydb/internal/plan"
	"anydb/internal/route"
	"anydb/internal/sim"
	"anydb/internal/sql"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// AnyDB is the benchmark-side assembly of the architecture-less system:
// the Figure 2 layout (2 servers × 4 ACs, growable), with every AC
// registering the full generic behavior set — executor, OLAP worker,
// query optimizer, sequencer, dispatcher — so any AC can act as anything;
// routing alone decides who does what.
type AnyDB struct {
	Cl   *core.SimCluster
	Topo *core.Topology
	DB   *storage.Database
	Cfg  tpcc.Config

	execs   []core.ACID // server-1 ACs, partition owners
	ctrl    []core.ACID // server-2 ACs: dispatcher, sequencer, coordinator, QO
	extra   []core.ACID // grown servers for HTAP isolation
	dispers map[core.ACID]*oltp.Dispatcher

	gen      *tpcc.Generator
	policy   oltp.Policy
	routes   oltp.Routes
	lay      route.Layout // role layout, fixed at construction
	nextTxn  core.TxnID
	nextQID  core.QueryID
	inflight int
	paused   bool
	depth    int // closed-loop depth of the last Prime

	// Self-driving mode: the controller behavior observes EvSignal
	// telemetry and emits EvAdapt decisions; the harness applies a
	// pending switch once in-flight work drains.
	adapt         *adapt.Controller
	tel           oltp.Telemetry
	pendingSwitch *adapt.Decision

	// Window counters, reset by TakeWindow.
	committed int64
	aborted   int64
	queries   int64

	olapOn   bool
	olapPlan func(q core.QueryID) *plan.GenericPlan
}

// NewAnyDB builds the cluster over a freshly populated database.
func NewAnyDB(db *storage.Database, cfg tpcc.Config, costs sim.CostModel) *AnyDB {
	return newAnyDB(db, cfg, costs, nil)
}

// NewAdaptiveAnyDB builds the cluster with the self-driving loop wired
// in: every dispatcher and the commit coordinator report telemetry to
// the sequencer AC, where the controller runs as the EvSignal behavior.
// Decisions reach the harness as EvAdapt client events and are applied
// as soon as in-flight work drains — no scripted switches anywhere.
// Zero Env fields in opts are derived from the built topology, so the
// cost model always scores against the real executor count.
func NewAdaptiveAnyDB(db *storage.Database, cfg tpcc.Config, costs sim.CostModel, opts adapt.Options) *AnyDB {
	return newAnyDB(db, cfg, costs, &opts)
}

func newAnyDB(db *storage.Database, cfg tpcc.Config, costs sim.CostModel, aopts *adapt.Options) *AnyDB {
	a := &AnyDB{DB: db, Cfg: cfg.WithDefaults(), dispers: make(map[core.ACID]*oltp.Dispatcher)}
	a.Topo = core.NewTopology(db)
	a.execs = a.Topo.AddServer(4)
	a.ctrl = a.Topo.AddServer(4)
	for w := 0; w < a.Cfg.Warehouses; w++ {
		a.Topo.SetOwner(w, a.execs[w%len(a.execs)])
	}
	a.policy = oltp.SharedNothing
	a.lay = route.Layout{
		Owner: a.Topo.Owner, Execs: a.execs,
		Dispatch: a.DispatchAC(), Seq: a.SeqAC(), Coord: a.CoordAC(),
	}
	a.routes = route.For(a.policy, a.lay)
	if aopts != nil {
		if aopts.Env.Executors == 0 {
			aopts.Env.Executors = len(a.execs)
		}
		if aopts.Env.Warehouses == 0 {
			aopts.Env.Warehouses = a.Cfg.Warehouses
		}
		a.adapt = adapt.NewController(*aopts)
		a.tel = oltp.Telemetry{Sink: a.SeqAC(), Every: 32, Enabled: true}
	}
	a.Cl = core.NewSimCluster(a.Topo, costs, a.setupAC)
	// AnyDB's deployment uses DPI flows (§4): cross-server streams are
	// serialized and partitioned by the NICs, not the sending cores.
	a.Cl.DPI = true
	a.Cl.SetClient(a.onClient)
	return a
}

// Role accessors (server 2 layout).
func (a *AnyDB) DispatchAC() core.ACID { return a.ctrl[0] }
func (a *AnyDB) SeqAC() core.ACID      { return a.ctrl[1] }
func (a *AnyDB) CoordAC() core.ACID    { return a.ctrl[2] }
func (a *AnyDB) QOAC() core.ACID       { return a.ctrl[3] }

// Execs returns the partition-owner ACs.
func (a *AnyDB) Execs() []core.ACID { return a.execs }

// setupAC registers the generic behavior set on every AC. Dispatchers
// are per-AC instances; EvAck coordination lives with the dispatcher
// except on the dedicated coordinator AC.
func (a *AnyDB) setupAC(ac *core.AC) {
	ac.Register(core.EvSegment, &oltp.Executor{DB: a.DB})
	ac.Register(core.EvInstallOp, &olap.Worker{DB: a.DB})
	ac.Register(core.EvQuery, &plan.QO{Topo: a.Topo})
	ac.Register(core.EvSeqStamp, &core.Sequencer{})
	if a.adapt != nil {
		// The controller registers everywhere (components stay
		// generic); only the telemetry sink AC receives reports.
		ac.Register(core.EvSignal, a.adapt)
	}
	if len(a.ctrl) > 0 && ac.ID == a.CoordAC() {
		coord := oltp.NewCoordinator()
		coord.SetTelemetry(a.tel)
		ac.Register(core.EvAck, coord)
		return
	}
	d := oltp.NewDispatcher(a.policy, a.DB, a.routes)
	d.SetTelemetry(a.tel)
	a.dispers[ac.ID] = d
	ac.Register(core.EvTxn, d)
	ac.Register(core.EvAck, d)
}

// SetWorkload installs the transaction generator.
func (a *AnyDB) SetWorkload(gen *tpcc.Generator) { a.gen = gen }

// SetPolicy reconfigures routing for subsequent transactions. Callers
// must Drain first when switching between policies whose routings could
// interleave conflicting events differently (the harness drains at phase
// boundaries; in-flight work always completes under its old routing —
// the paper's "no downtime" reconfiguration).
func (a *AnyDB) SetPolicy(policy oltp.Policy, routes oltp.Routes) {
	a.policy = policy
	a.routes = routes
	for _, d := range a.dispers {
		d.SetConfig(policy, routes)
	}
}

// RoutesFor maps a policy to its standard routing table — the same
// internal/route mapping the public runtime (anydb.Cluster) uses, so
// the bench harness and the real engine can never drift apart. The
// layout is cached at construction (role ACs never change), keeping
// the closed-loop injection path allocation-free.
func (a *AnyDB) RoutesFor(p oltp.Policy) oltp.Routes {
	return route.For(p, a.lay)
}

// entryAC picks where a transaction enters the system (see route.Entry).
func (a *AnyDB) entryAC(txn *tpcc.Txn) core.ACID {
	return route.Entry(a.policy, a.lay, txn.HomeWarehouse())
}

// injectNext issues one transaction from the generator (closed loop).
// The txn rides the pool: the dispatcher frees it once the op program
// is compiled, so the closed loop allocates no Txn in steady state.
func (a *AnyDB) injectNext(at sim.Time) {
	txn := tpcc.GetTxn()
	a.gen.NextInto(txn)
	a.nextTxn++
	a.inflight++
	a.Cl.Inject(a.entryAC(txn), &core.Event{
		Kind: core.EvTxn, Txn: a.nextTxn, Payload: txn,
	}, at)
}

// Prime seeds the closed loop with n outstanding transactions.
func (a *AnyDB) Prime(n int) {
	a.paused = false
	a.depth = n
	for i := 0; i < n; i++ {
		a.injectNext(a.Cl.Sched.Now())
	}
}

// AdaptLog returns the self-driving controller's decisions (nil when
// the cluster was built without one).
func (a *AnyDB) AdaptLog() []adapt.Decision {
	if a.adapt == nil {
		return nil
	}
	return a.adapt.Log()
}

// onClient keeps the loop full and counts completions.
func (a *AnyDB) onClient(at sim.Time, ev *core.Event) {
	switch p := ev.Payload.(type) {
	case *oltp.DoneInfo:
		if p.Committed {
			a.committed++
		} else {
			a.aborted++
		}
		a.inflight--
		if a.pendingSwitch != nil {
			// Architecture shift in flight: stop refilling the loop;
			// once drained, reroute and resume. This is the same
			// drain-reroute-resume protocol the scripted harness uses,
			// driven by the controller instead of the script.
			if a.inflight == 0 {
				a.applyPendingSwitch()
			}
			return
		}
		if !a.paused {
			a.injectNext(at)
		}
	case *olap.QueryResult:
		freeResult(p)
		a.queries++
		if a.olapOn {
			a.startQuery(at)
		}
	case *adapt.Decision:
		if p.From == p.To {
			// Grow-only decisions are the harness's business (the
			// evolving workload grows servers with the OLAP load).
			return
		}
		// Latest decision wins: the controller tracks the policy it
		// chose, so an un-applied older target must not shadow a
		// newer one (e.g. a revert emitted mid-drain).
		a.pendingSwitch = p
		if a.inflight == 0 {
			a.applyPendingSwitch()
		}
	case *olap.OpDone:
		// Figure 6 instrumentation; unused in throughput runs.
	}
}

// applyPendingSwitch reroutes to the controller's chosen policy and
// refills the closed loop. Runs inside the client callback with no
// transactions in flight, so no conflicting work straddles routings.
func (a *AnyDB) applyPendingSwitch() {
	d := a.pendingSwitch
	a.pendingSwitch = nil
	if d.To != a.policy {
		a.SetPolicy(d.To, a.RoutesFor(d.To))
	}
	if !a.paused {
		a.Prime(a.depth)
	}
}

// Drain pauses injection and runs until all in-flight transactions
// complete (used at policy switches).
func (a *AnyDB) Drain() {
	a.paused = true
	for a.inflight > 0 {
		a.Cl.RunUntil(a.Cl.Sched.Now() + sim.Millisecond)
	}
}

// TakeWindow returns and resets the window counters.
func (a *AnyDB) TakeWindow() (committed, aborted, queries int64) {
	committed, aborted, queries = a.committed, a.aborted, a.queries
	a.committed, a.aborted, a.queries = 0, 0, 0
	return
}

// EnableOLAP grows two extra servers (Figure 3b) on first use and starts
// `streams` continuous Q3 chains with full data beaming, isolated from
// the OLTP ACs: joins and the QO run on the new servers, scans stream
// from the storage owners.
func (a *AnyDB) EnableOLAP(streams int) {
	if len(a.extra) == 0 {
		a.extra = append(a.extra, a.Cl.GrowServer(4, a.setupAC)...)
		a.extra = append(a.extra, a.Cl.GrowServer(4, a.setupAC)...)
	}
	if a.olapPlan == nil {
		tpcc.Analyze(a.DB)
		parts := make([]int, a.Cfg.Warehouses)
		for i := range parts {
			parts[i] = i
		}
		a.olapPlan = func(q core.QueryID) *plan.GenericPlan {
			// Spread the query streams' operators across the extra
			// servers' ACs: join1 on the first, join2 and the sink on
			// the second.
			base := int(q) * 2 % len(a.extra)
			compute := []core.ACID{a.extra[base], a.extra[(base+1)%len(a.extra)]}
			p := mustCompileQ3(a.DB, q, parts, compute)
			p.Beam, p.CompileTime = plan.BeamAll, 2*sim.Millisecond
			return p
		}
	}
	if !a.olapOn {
		a.olapOn = true
		if streams < 1 {
			streams = 1
		}
		for i := 0; i < streams; i++ {
			a.startQuery(a.Cl.Sched.Now())
		}
	}
}

// DisableOLAP stops issuing new queries.
func (a *AnyDB) DisableOLAP() { a.olapOn = false }

func (a *AnyDB) startQuery(at sim.Time) {
	a.nextQID++
	// Any AC can act as the query optimizer (Figure 2): rotate the QO
	// role across the extra servers so concurrent query streams compile
	// in parallel.
	qoAC := a.QOAC()
	if n := len(a.extra); n > 0 {
		qoAC = a.extra[(int(a.nextQID)*3+2)%n]
	}
	a.Cl.Inject(qoAC, &core.Event{
		Kind: core.EvQuery, Query: a.nextQID, Payload: a.olapPlan(a.nextQID),
	}, at)
}

// mustCompileQ3 routes tpcc.Q3SQL through the generic planner, as the
// public Cluster does: join1 runs on compute[0], join2 and the sink on
// compute[1]. The catalog must already be analyzed (tpcc.Analyze) so
// the join chain starts at the filtered customer scan.
func mustCompileQ3(db *storage.Database, qid core.QueryID, parts []int, compute []core.ACID) *plan.GenericPlan {
	q, err := sql.Parse(tpcc.Q3SQL)
	if err != nil {
		panic("bench: " + err.Error())
	}
	p, err := plan.CompileSQL(db.Catalog, q, qid, parts, compute, core.ClientAC)
	if err != nil {
		panic("bench: " + err.Error())
	}
	return p
}

// resultCount returns a COUNT(*) result's value and recycles its batches.
func resultCount(res *olap.QueryResult) int64 {
	n := res.Batches[0].Value(0, 0).I
	freeResult(res)
	return n
}

// freeResult recycles a result's pooled batches.
func freeResult(res *olap.QueryResult) {
	for _, b := range res.Batches {
		storage.FreeBatch(b)
	}
	res.Batches = nil
}
