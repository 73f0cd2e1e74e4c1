package main

import (
	"fmt"
	"math/rand"

	"anydb"
	"anydb/internal/tpcc"
)

// The database every workload runs on: the default 2×4 topology, four
// warehouses, and 10k customers per partition so that customer spans
// five 2048-row columnar chunks per partition.
const (
	warehouses = 4
	districts  = 4
	customers  = 2500 // per district
	items      = 2000
	initOrders = 600 // per district: 2400 orders per partition
	dataSeed   = 42
)

func clusterConfig() anydb.Config {
	return anydb.Config{
		Warehouses: warehouses, Districts: districts, CustomersPerDistrict: customers,
		Items: items, InitialOrdersPerDist: initOrders, Seed: dataSeed,
	}
}

// tpccConfig is the configuration anydb.Open derives from clusterConfig,
// for the probes that build the database without a cluster.
func tpccConfig() tpcc.Config {
	return tpcc.Config{
		Warehouses: warehouses, Districts: districts, Customers: customers,
		Items: items, InitOrders: initOrders, LinesPerOrder: 1, Seed: dataSeed,
	}.WithDefaults()
}

// txn is one generated transaction in the public API's terms.
type txn struct {
	payment  bool
	p        anydb.Payment
	no       anydb.NewOrder
	rollback bool // carries the documented Item: -1 line
}

// txnGen draws the TPC-C mix from a seed: 50% payment and 50% new-order
// over uniform home warehouses; payments are 15% remote and 60% by last
// name; new-orders have 5–15 lines, 1% of lines from a remote supply
// warehouse, and 1% end with the documented Item: -1 line, which rolls
// the transaction back. Amounts are whole dollars so that sums of
// w_ytd are exact in float64 and the durability check can demand
// equality.
type txnGen struct {
	rng   *rand.Rand
	lines []anydb.OrderLine
}

var lastNames = func() (out [1000]string) {
	for i := range out {
		out[i] = tpcc.LastName(i)
	}
	return out
}()

func newTxnGen(seed int64) *txnGen {
	return &txnGen{rng: rand.New(rand.NewSource(seed)), lines: make([]anydb.OrderLine, 0, 16)}
}

// nuRand is TPC-C's non-uniform random NURand(A, x, y) with constant c.
func (g *txnGen) nuRand(a, x, y, c int) int {
	return ((g.rng.Intn(a+1)|(x+g.rng.Intn(y-x+1)))+c)%(y-x+1) + x
}

func (g *txnGen) otherWarehouse(w int) int {
	o := g.rng.Intn(warehouses - 1)
	if o >= w {
		o++
	}
	return o
}

// next fills t. The new-order's Lines alias the generator's buffer, which
// the cluster copies on submission, so t is valid until the next call.
func (g *txnGen) next(t *txn) {
	w := g.rng.Intn(warehouses)
	d := 1 + g.rng.Intn(districts)
	if g.rng.Intn(2) == 0 {
		*t = txn{payment: true, p: anydb.Payment{
			Warehouse: w, District: d, Amount: float64(1 + g.rng.Intn(5000)),
		}}
		if g.rng.Intn(100) < 15 {
			t.p.CustomerWarehouse = g.otherWarehouse(w)
			t.p.CustomerDistrict = 1 + g.rng.Intn(districts)
		}
		if g.rng.Intn(100) < 60 {
			t.p.ByLastName, t.p.LastName = true, lastNames[g.nuRand(255, 0, 999, 173)]
		} else {
			t.p.Customer = g.nuRand(1023, 1, customers, 259)
		}
		return
	}
	n := 5 + g.rng.Intn(11)
	rollback := g.rng.Intn(100) == 0
	g.lines = g.lines[:0]
	for i := 0; i < n; i++ {
		l := anydb.OrderLine{Item: g.rng.Intn(items), Qty: 1 + g.rng.Intn(10), SupplyWarehouse: w}
		if g.rng.Intn(100) == 0 {
			l.SupplyWarehouse = g.otherWarehouse(w)
		}
		if rollback && i == n-1 {
			l.Item = -1
		}
		g.lines = append(g.lines, l)
	}
	*t = txn{rollback: rollback, no: anydb.NewOrder{
		Warehouse: w, District: d, Customer: g.nuRand(1023, 1, customers, 259), Lines: g.lines,
	}}
}

// tpccTxn converts t to the internal form the executor and WAL probes
// take. Lines are copied: the result outlives the generator's buffer.
func (t *txn) tpccTxn() tpcc.Txn {
	if t.payment {
		p := t.p
		cw, cd := p.CustomerWarehouse, p.CustomerDistrict
		if cw == 0 && cd == 0 {
			cw, cd = p.Warehouse, p.District
		}
		out := tpcc.Txn{Kind: tpcc.TxnPayment, Payment: tpcc.Payment{
			W: p.Warehouse, D: p.District, CW: cw, CD: cd, C: p.Customer,
			ByLast: p.ByLastName, Amount: p.Amount,
		}}
		if p.ByLastName {
			out.Payment.Last = tpcc.LastNameNum(p.LastName)
		}
		return out
	}
	out := tpcc.Txn{Kind: tpcc.TxnNewOrder, NewOrder: tpcc.NewOrder{W: t.no.Warehouse, D: t.no.District, C: t.no.Customer}}
	for _, l := range t.no.Lines {
		out.NewOrder.Lines = append(out.NewOrder.Lines, tpcc.NewOrderLine{Item: l.Item, SupplyW: l.SupplyWarehouse, Qty: l.Qty})
	}
	return out
}

// queryKind is one of the four analytical queries.
type queryKind struct {
	name string
	sql  string
}

// q3SQL is the paper's §4 join as the SQL text OpenOrders runs; the
// workloads call OpenOrders, the parse and compile probes take the text.
var q3SQL = fmt.Sprintf(`SELECT COUNT(*)
	FROM customer
	JOIN orders ON customer.c_w_id = orders.o_w_id
		AND customer.c_d_id = orders.o_d_id
		AND customer.c_id = orders.o_c_id
	JOIN new_order ON orders.o_w_id = new_order.no_w_id
		AND orders.o_d_id = new_order.no_d_id
		AND orders.o_id = new_order.no_o_id
	WHERE c_state LIKE '%s%%' AND o_entry_d >= %d`,
	tpcc.Q3StatePrefix, tpcc.Q3SinceYear)

var queryKinds = []queryKind{
	{"count", "SELECT COUNT(*) FROM customer WHERE c_state LIKE 'A%'"},
	{"group", "SELECT c_state, COUNT(*) FROM customer GROUP BY c_state"},
	{"topk", "SELECT o_d_id, COUNT(*) FROM orders GROUP BY o_d_id ORDER BY COUNT(*) DESC, o_d_id ASC LIMIT 3"},
	{"q3", q3SQL},
}

const (
	kCount = iota
	kGroup
	kTopK
	kQ3
)
