package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anydb"
)

const (
	window    = 64 // in-flight transactions per closed-loop OLTP client
	burstSize = 32 // concurrent queries per olap-burst burst

	// The htap open-loop rates, chosen once below the knee on the
	// default seed and never derived at run time.
	htapTxnRate   = 5000 // txn/s
	htapQueryRate = 100  // q/s
)

// workload is one named traffic mix. drive runs the timed phase of a
// round until the round's deadline, then waits for every request it
// issued.
type workload struct {
	name    string
	durable bool
	// queries selects the latency the gated metrics take: queries (with
	// p95 as the tail) or transactions (p99).
	queries bool
	// readOnly workloads expect every answer to equal the warm-up's.
	readOnly bool
	// round is the timed phase of one round, each on a freshly opened
	// cluster. Saturated OLTP inserts about half a gigabyte of rows a
	// second, so its rounds are short; htap's are long enough for 200
	// queries, so a round's p95 has ten samples above it.
	round time.Duration
	drive func(r *round)
}

var workloads = []workload{
	{name: "oltp-pipelined", round: 500 * time.Millisecond, drive: driveOLTP},
	{name: "oltp-durable", durable: true, round: 500 * time.Millisecond, drive: driveOLTP},
	{name: "olap-burst", queries: true, readOnly: true, round: 500 * time.Millisecond, drive: driveBurst},
	{name: "htap", queries: true, round: 2 * time.Second, drive: driveHTAP},
}

// tailQ is the quantile of tail_us: p95 over the hundreds of queries a
// round sees, p99 over its tens of thousands of transactions.
func (w *workload) tailQ() float64 {
	if w.queries {
		return 0.95
	}
	return 0.99
}

// opStats collects one driving goroutine's outcomes. Latencies are in
// nanoseconds, from submission (closed loop) or due time (open loop)
// until the result is in hand.
type opStats struct {
	payLat, noLat []int64
	qLat          [4][]int64
	genLate       []int64
	// Traced rounds only: time inside Submit* (session, session-less)
	// and blocked in Future.Wait.
	submitNS [2][]int64
	waitNS   []int64

	attempted, failed             int64
	commits, rollbacks, noCommits int64
	queries                       int64
	q3                            []int64 // htap q3 answers, range-checked after the round
	errs                          []string
}

func newOpStats() *opStats {
	return &opStats{payLat: make([]int64, 0, 1<<18), noLat: make([]int64, 0, 1<<18)}
}

func (s *opStats) reset() {
	s.payLat, s.noLat, s.genLate = s.payLat[:0], s.noLat[:0], s.genLate[:0]
	for k := range s.qLat {
		s.qLat[k] = s.qLat[k][:0]
	}
	s.q3 = s.q3[:0]
	s.submitNS[0], s.submitNS[1], s.waitNS = s.submitNS[0][:0], s.submitNS[1][:0], s.waitNS[:0]
	s.attempted, s.failed, s.commits, s.rollbacks, s.noCommits, s.queries = 0, 0, 0, 0, 0, 0
	s.errs = s.errs[:0]
}

func (s *opStats) fail(format string, args ...any) {
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

// add folds o into s.
func (s *opStats) add(o *opStats) {
	s.payLat = append(s.payLat, o.payLat...)
	s.noLat = append(s.noLat, o.noLat...)
	s.genLate = append(s.genLate, o.genLate...)
	for k := range s.qLat {
		s.qLat[k] = append(s.qLat[k], o.qLat[k]...)
	}
	s.q3 = append(s.q3, o.q3...)
	for i := range s.submitNS {
		s.submitNS[i] = append(s.submitNS[i], o.submitNS[i]...)
	}
	s.waitNS = append(s.waitNS, o.waitNS...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.commits += o.commits
	s.rollbacks += o.rollbacks
	s.noCommits += o.noCommits
	s.queries += o.queries
	for _, e := range o.errs {
		if len(s.errs) < 5 {
			s.errs = append(s.errs, e)
		}
	}
}

// gated returns the latency samples the gated metrics are over.
func (s *opStats) gated(w *workload) []int64 {
	if !w.queries {
		return append(append([]int64(nil), s.payLat...), s.noLat...)
	}
	var out []int64
	for _, q := range s.qLat {
		out = append(out, q...)
	}
	return out
}

// txnDone records a resolved transaction: exactly the Item: -1
// new-orders must roll back.
func (s *opStats) txnDone(t *txn, committed bool, err error, lat time.Duration) {
	switch {
	case err != nil:
		s.fail("transaction: %v", err)
	case committed == t.rollback:
		s.fail("transaction committed=%v but rollback line=%v", committed, t.rollback)
	case t.payment:
		s.commits++
		s.payLat = append(s.payLat, int64(lat))
	default:
		if committed {
			s.commits++
			s.noCommits++
		} else {
			s.rollbacks++
		}
		s.noLat = append(s.noLat, int64(lat))
	}
}

// round is one fresh cluster driven for one timed phase.
type round struct {
	w        *workload
	c        *anydb.Cluster
	seed     int64
	start    time.Time
	deadline time.Time
	warm     [4]string // warm-up answers, the expected query results
	tr       *tracer   // nil when untraced
	rec      *recorder // shared by the round's query goroutines
	parent   spanRef
	clients  []*opStats
	qmu      sync.Mutex // guards q
	q        *opStats
	nextReq  atomic.Int64
}

// submitter is the submission surface shared by *anydb.Session and the
// session-less *anydb.Cluster.
type submitter interface {
	SubmitPayment(ctx context.Context, p anydb.Payment) (*anydb.Future, error)
	SubmitNewOrder(ctx context.Context, no anydb.NewOrder) (*anydb.Future, error)
}

func submit(sub submitter, t *txn) (*anydb.Future, error) {
	if t.payment {
		return sub.SubmitPayment(context.Background(), t.p)
	}
	return sub.SubmitNewOrder(context.Background(), t.no)
}

// driveOLTP is the closed loop of oltp-pipelined and oltp-durable: two
// clients, one through a Session and one session-less, each keeping a
// 64-deep window of submitted transactions.
func driveOLTP(r *round) {
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			oltpClient(r, g)
		}()
	}
	wg.Wait()
}

type pending struct {
	f    *anydb.Future
	from time.Time
	t    txn
	req  int64
}

func oltpClient(r *round, g int) {
	st := r.clients[g]
	rec := r.tr.recorder()
	gen := newTxnGen(r.seed*16 + int64(g))
	var sub submitter = r.c
	name := "Submit.sessionless"
	if g == 0 {
		s := r.c.Session()
		defer s.Close()
		sub, name = s, "Submit.session"
	}
	client := rec.begin("client", r.parent, 0)
	defer rec.end(client)
	var ring [window]pending
	head, n := 0, 0
	wait := func(p *pending) {
		sp := rec.begin("Wait", client, p.req)
		committed, err := p.f.Wait(context.Background())
		if d := rec.end(sp); rec != nil {
			st.waitNS = append(st.waitNS, d)
		}
		st.txnDone(&p.t, committed, err, time.Since(p.from))
	}
	req := int64(g+1) << 40
	for time.Now().Before(r.deadline) {
		if n == window {
			wait(&ring[head])
			head = (head + 1) % window
			n--
		}
		p := &ring[(head+n)%window]
		gen.next(&p.t)
		req++
		p.from, p.req = time.Now(), req
		sp := rec.begin(name, client, req)
		f, err := submit(sub, &p.t)
		if d := rec.end(sp); rec != nil {
			st.submitNS[g] = append(st.submitNS[g], d)
		}
		st.attempted++
		if err != nil {
			st.fail("submit: %v", err)
			continue
		}
		p.f = f
		n++
	}
	for ; n > 0; n-- {
		wait(&ring[head])
		head = (head + 1) % window
	}
}

// runQuery runs query kind k, drains its rows, checks the answer against
// the workload's rule and records its latency from `from`.
func (r *round) runQuery(rec *recorder, parent spanRef, k int, from time.Time) {
	req := r.nextReq.Add(1)
	ans, err := r.query(rec, parent, k, req)
	lat := time.Since(from)
	r.qmu.Lock()
	defer r.qmu.Unlock()
	s := r.q
	s.attempted++
	if err != nil {
		s.fail("query %s: %v", queryKinds[k].name, err)
		return
	}
	switch {
	case r.w.readOnly && ans != r.warm[k]:
		s.fail("query %s = %q, warm-up gave %q", queryKinds[k].name, ans, r.warm[k])
		return
	case (k == kCount || k == kGroup) && ans != r.warm[k]:
		s.fail("query %s = %q, want %q (transactions cannot change it)", queryKinds[k].name, ans, r.warm[k])
		return
	case k == kTopK && strings.Count(ans, ";") != 3:
		s.fail("query topk returned %q, want 3 rows", ans)
		return
	case k == kQ3:
		var n int64
		fmt.Sscan(ans, &n)
		s.q3 = append(s.q3, n)
	}
	s.queries++
	s.qLat[k] = append(s.qLat[k], int64(lat))
}

// query runs one query and renders its rows as "a|b;c|d;".
func (r *round) query(rec *recorder, parent spanRef, k int, req int64) (string, error) {
	ctx := context.Background()
	if k == kQ3 {
		sp := rec.begin("OpenOrders", parent, req)
		n, err := r.c.OpenOrders(ctx)
		rec.end(sp)
		return fmt.Sprint(n), err
	}
	sp := rec.begin("Query", parent, req)
	rows, err := r.c.Query(ctx, queryKinds[k].sql)
	rec.end(sp)
	if err != nil {
		return "", err
	}
	sp = rec.begin("drain", parent, req)
	defer rec.end(sp)
	return drain(rows)
}

func drain(rows *anydb.Rows) (string, error) {
	defer rows.Close()
	vals := make([]any, len(rows.Columns()))
	ptrs := make([]any, len(vals))
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	var b strings.Builder
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			return "", err
		}
		for i, v := range vals {
			if i > 0 {
				b.WriteByte('|')
			}
			fmt.Fprint(&b, v)
		}
		b.WriteByte(';')
	}
	return b.String(), rows.Err()
}

// driveBurst is olap-burst's closed loop: one client fires 32 queries at
// once, drawn from the four kinds, and waits for all of them.
func driveBurst(r *round) {
	rng := rand.New(rand.NewSource(r.seed))
	var kinds [burstSize]int
	for time.Now().Before(r.deadline) {
		for i := range kinds {
			kinds[i] = rng.Intn(len(queryKinds))
		}
		start := time.Now()
		burst := r.rec.begin("burst", r.parent, 0)
		var wg sync.WaitGroup
		for _, k := range kinds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.runQuery(r.rec, burst, k, start)
			}()
		}
		wg.Wait()
		r.rec.end(burst)
	}
}

// arrival is the due time of the i-th request of an open loop at rate
// per second: uniformly placed within the i-th slot of length 1/rate,
// so every run offers exactly the rate while the spacing is random.
func arrival(start time.Time, rng *rand.Rand, i int64, rate float64) time.Time {
	return start.Add(time.Duration((float64(i) + rng.Float64()) / rate * 1e9))
}

// driveHTAP is the open loop: transactions and queries arrive on seeded
// schedules at fixed rates. One goroutine submits transactions when due
// and one waits for their futures in order; one goroutine fires each due
// query in its own goroutine, cycling through the four kinds in a seeded
// order so every run has the same mix. Latencies run from the due time,
// so a stall also delays every request due behind it.
func driveHTAP(r *round) {
	type inflight struct {
		f   *anydb.Future
		due time.Time
		t   txn
		req int64
	}
	// Sized to hold every transaction of a round, so the generator never
	// blocks on the waiter.
	ch := make(chan inflight, int(htapTxnRate*r.w.round.Seconds())+1024)
	txnRec, waitRec := r.tr.recorder(), r.tr.recorder()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // transaction generator
		defer wg.Done()
		defer close(ch)
		st := r.clients[0]
		arr := rand.New(rand.NewSource(r.seed*16 + 1))
		gen := newTxnGen(r.seed*16 + 2)
		for req := int64(1); ; req++ {
			due := arrival(r.start, arr, req-1, htapTxnRate)
			if !due.Before(r.deadline) {
				return
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			st.genLate = append(st.genLate, int64(time.Since(due)))
			var t txn
			gen.next(&t)
			sp := txnRec.begin("Submit.sessionless", r.parent, req)
			f, err := submit(r.c, &t)
			txnRec.end(sp)
			st.attempted++
			if err != nil {
				st.fail("submit: %v", err)
				continue
			}
			ch <- inflight{f: f, due: due, t: t, req: req}
		}
	}()
	go func() { // transaction waiter
		defer wg.Done()
		st := r.clients[1]
		for p := range ch {
			sp := waitRec.begin("Wait", r.parent, p.req)
			committed, err := p.f.Wait(context.Background())
			waitRec.end(sp)
			st.txnDone(&p.t, committed, err, time.Since(p.due))
		}
	}()
	go func() { // query generator
		defer wg.Done()
		arr := rand.New(rand.NewSource(r.seed*16 + 3))
		var late []int64
		var qwg sync.WaitGroup
		var kinds []int
		for i := int64(0); ; i++ {
			due := arrival(r.start, arr, i, htapQueryRate)
			if !due.Before(r.deadline) {
				break
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			late = append(late, int64(time.Since(due)))
			if len(kinds) == 0 {
				kinds = arr.Perm(len(queryKinds))
			}
			k := kinds[0]
			kinds = kinds[1:]
			qwg.Add(1)
			go func(due time.Time) {
				defer qwg.Done()
				r.runQuery(r.rec, r.parent, k, due)
			}(due)
		}
		qwg.Wait()
		r.qmu.Lock()
		r.q.genLate = append(r.q.genLate, late...)
		r.qmu.Unlock()
	}()
	wg.Wait()
}
