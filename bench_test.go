// Benchmarks regenerating the paper's evaluation, one per figure (plus
// the routing ablation). Each benchmark prints the reproduced table once
// and reports wall time per full regeneration; the numbers inside the
// tables are deterministic virtual-time measurements, so -benchtime=1x is
// enough.
//
//	go test -bench=. -benchmem
//	go test -bench Figure5 -run - -v
package anydb_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anydb"
	"anydb/internal/bench"
	"anydb/internal/olap"
	"anydb/internal/sim"
)

var printOnce sync.Once

// benchOLTP uses a shorter phase than the CLI so `go test -bench .` stays
// fast; shapes are unchanged (the simulation is deterministic).
func benchOLTP() bench.OLTPOpts {
	o := bench.DefaultOLTPOpts()
	o.PhaseDur = 10 * sim.Millisecond
	return o
}

// BenchmarkFigure1 regenerates Figure 1: OLTP throughput across the
// 12-phase evolving workload, DBx1000 vs AnyDB.
func BenchmarkFigure1(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		res := bench.Figure1(benchOLTP())
		out = bench.RenderFigure1(res, benchOLTP())
	}
	b.StopTimer()
	fmt.Println(out)
}

// BenchmarkFigure5 regenerates Figure 5: the six OLTP execution-strategy
// series over partitionable and skewed phases.
func BenchmarkFigure5(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		series := bench.Figure5(benchOLTP())
		out = bench.RenderFigure5(series, benchOLTP()) + "\n" + bench.Headline(series)
	}
	b.StopTimer()
	fmt.Println(out)
}

// BenchmarkFigure6 regenerates Figure 6: data beaming runtimes vs query
// compile time (scaled-down database; cmd/anydb-bench runs full scale).
func BenchmarkFigure6(b *testing.B) {
	opts := bench.DefaultFig6Opts()
	opts.Cfg.Warehouses = 12
	opts.Cfg.InitOrders = 1500
	var out string
	for i := 0; i < b.N; i++ {
		res := bench.Figure6(opts)
		out = bench.RenderFigure6(res)
	}
	b.StopTimer()
	fmt.Println(out)
}

// BenchmarkAblationRouting quantifies the event cost of each routing mode
// (Figure 4's duality measured).
func BenchmarkAblationRouting(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.RenderAblation(bench.Ablation(benchOLTP()))
	}
	b.StopTimer()
	fmt.Println(out)
}

// openBenchCluster sizes a real-runtime cluster for the submission
// benchmarks below (these measure the public API's hot path, not a
// paper figure).
func openBenchCluster(b *testing.B) *anydb.Cluster {
	b.Helper()
	c, err := anydb.Open(anydb.Config{
		Warehouses: 4, Districts: 4, CustomersPerDistrict: 100,
		InitialOrdersPerDist: 10, Items: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return c
}

const submitWorkers = 4

// BenchmarkPaymentBlocking drives payments from submitWorkers goroutines
// one round trip at a time — the query-at-a-time client model.
func BenchmarkPaymentBlocking(b *testing.B) {
	c := openBenchCluster(b)
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < submitWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < b.N; i += submitWorkers {
				if _, err := c.Payment(anydb.Payment{
					Warehouse: i % 4, District: 1 + i%4, Customer: 1 + i%100, Amount: 1,
				}); err != nil {
					b.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkSubmitContention measures the cluster-entry path under
// maximum submitter parallelism: GOMAXPROCS sessions pipeline payments
// (a 64-deep window each), so every submission hits the gate/inflight
// accounting at the same time. The NoChurn variant is the steady state;
// PolicyChurn keeps a concurrent SetPolicy loop flipping the routing, so
// the drain/reopen slow path stays exercised while submitters race it.
// Run with -cpu 1,4 to see the contention slope, and with
// -mutexprofile to verify the uncontended path takes no mutex.
func BenchmarkSubmitContention(b *testing.B) {
	for _, churn := range []bool{false, true} {
		name := "NoChurn"
		if churn {
			name = "PolicyChurn"
		}
		b.Run(name, func(b *testing.B) {
			c := openBenchCluster(b)
			ctx := context.Background()
			stop := make(chan struct{})
			var churner sync.WaitGroup
			if churn {
				churner.Add(1)
				go func() {
					defer churner.Done()
					pols := []anydb.Policy{anydb.StreamingCC, anydb.SharedNothing}
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						sctx, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
						c.SetPolicy(sctx, pols[i%len(pols)])
						cancel()
						time.Sleep(time.Millisecond)
					}
				}()
			}
			b.ResetTimer()
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				const window = 64
				futs := make([]*anydb.Future, 0, window)
				flush := func() {
					for _, f := range futs {
						if _, err := f.Wait(ctx); err != nil {
							b.Error(err)
						}
					}
					futs = futs[:0]
				}
				i := 0
				for pb.Next() {
					f, err := c.SubmitPayment(ctx, anydb.Payment{
						Warehouse: i % 4, District: 1 + i%4, Customer: 1 + i%100, Amount: 1,
					})
					if err != nil {
						b.Error(err)
						return
					}
					if futs = append(futs, f); len(futs) == window {
						flush()
					}
					i++
				}
				flush()
			})
			b.StopTimer()
			close(stop)
			churner.Wait()
		})
	}
}

// BenchmarkRebalance measures the live partition-handoff path: each op
// is one Cluster.Rebalance bouncing a warehouse between two servers
// while pipelined payment sessions keep every warehouse loaded — so the
// reported ns/op is the real gate-drain-handoff-reopen latency under
// traffic, and the txn/s metric shows what throughput the moves leave
// intact (the dip). Run with -cpu 1,4 alongside the other submit-plane
// benchmarks.
func BenchmarkRebalance(b *testing.B) {
	c, err := anydb.Open(anydb.Config{
		Servers: 3, Warehouses: 8, Districts: 4, CustomersPerDistrict: 100,
		InitialOrdersPerDist: 10, Items: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	ctx := context.Background()
	stop := make(chan struct{})
	var committed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < submitWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			const window = 32
			futs := make([]*anydb.Future, 0, window)
			flush := func() {
				for _, f := range futs {
					if ok, err := f.Wait(ctx); err == nil && ok {
						committed.Add(1)
					}
				}
				futs = futs[:0]
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					flush()
					return
				default:
				}
				f, err := c.SubmitPayment(ctx, anydb.Payment{
					Warehouse: (g + i) % 8, District: 1 + i%4, Customer: 1 + i%100, Amount: 1,
				})
				if err != nil {
					return
				}
				if futs = append(futs, f); len(futs) == window {
					flush()
				}
			}
		}(g)
	}
	b.ResetTimer()
	b.ReportAllocs()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := c.Rebalance(ctx, 7, []int{0, 2}[i%2]); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	close(stop)
	wg.Wait()
	if elapsed > 0 {
		b.ReportMetric(float64(committed.Load())/elapsed.Seconds(), "txn/s")
	}
}

// BenchmarkSharedScanConcurrency measures aggregate analytical query
// throughput as concurrency grows. All queries scan the same table, so
// concurrent registrations ride shared cursor passes (one chunk fetch
// and one driver continuation per chunk, however many queries attach)
// while parse/plan/sink work pipelines across ACs. Conc1 is the
// sequential baseline; the queries/s metric is the headline. Run with
// -cpu 1,4 alongside the submit-plane benchmarks.
// scanBenchConfig sizes the analytical benchmarks below: 10k customers
// per partition (several columnar chunks), so scan work dominates the
// per-query fixed costs and cursor sharing is what's being measured.
func scanBenchConfig() anydb.Config {
	return anydb.Config{
		Warehouses: 4, Districts: 4, CustomersPerDistrict: 2500,
		InitialOrdersPerDist: 10, Items: 100,
	}
}

func BenchmarkSharedScanConcurrency(b *testing.B) {
	const query = "SELECT COUNT(*) FROM customer WHERE c_d_id <> 0"
	for _, conc := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("Conc%d", conc), func(b *testing.B) {
			c, err := anydb.Open(scanBenchConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Close)
			ctx := context.Background()
			var want int64
			if err := c.QueryRow(ctx, query).Scan(&want); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			var next atomic.Int64
			var wg sync.WaitGroup
			start := time.Now()
			for g := 0; g < conc; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						var n int64
						if err := c.QueryRow(ctx, query).Scan(&n); err != nil {
							b.Error(err)
							return
						}
						if n != want {
							b.Errorf("count = %d, want %d", n, want)
							return
						}
					}
				}()
			}
			wg.Wait()
			if elapsed := time.Since(start); elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "queries/s")
			}
		})
	}
}

// BenchmarkOpenOrders measures the paper's Q3 (OpenOrders: customer
// scan → hash join with orders → hash join with new_order → COUNT)
// through the public API, Conc1 sequential and Conc8 concurrent. The
// database matches perfbench's: 600 initial orders per district, so
// both joins carry thousands of rows and the streaming scan → join →
// sink path, not per-query fixed costs, dominates. Profile with
//
//	go test -run '^$' -bench OpenOrders -benchmem -cpuprofile cpu.prof .
func BenchmarkOpenOrders(b *testing.B) {
	cfg := anydb.Config{
		Warehouses: 4, Districts: 4, CustomersPerDistrict: 2500,
		InitialOrdersPerDist: 600, Items: 100,
	}
	for _, conc := range []int{1, 8} {
		b.Run(fmt.Sprintf("Conc%d", conc), func(b *testing.B) {
			c, err := anydb.Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Close)
			ctx := context.Background()
			want, err := c.OpenOrders(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if want == 0 {
				b.Fatal("warm-up OpenOrders matched no rows")
			}
			b.ResetTimer()
			b.ReportAllocs()
			var next atomic.Int64
			var wg sync.WaitGroup
			start := time.Now()
			for g := 0; g < conc; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						n, err := c.OpenOrders(ctx)
						if err != nil {
							b.Error(err)
							return
						}
						if n != want {
							b.Errorf("OpenOrders = %d, want %d", n, want)
							return
						}
					}
				}()
			}
			wg.Wait()
			if elapsed := time.Since(start); elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "queries/s")
			}
		})
	}
}

// BenchmarkGroupedAgg measures grouped-aggregate throughput on a
// dictionary-encoded group column: Fast uses the dense fast path
// (packed group codes index a flat accumulator, one bounds-checked
// array access per row), Map forces the hash-map fallback the fast
// path replaces. Same query, same data, Conc 1/8/32 — the Fast/Map
// ratio at equal concurrency is the vectorized path's win, and the
// queries/s metric is the headline.
func BenchmarkGroupedAgg(b *testing.B) {
	const query = "SELECT c_state, COUNT(*) FROM customer GROUP BY c_state"
	countGroups := func(c *anydb.Cluster, ctx context.Context) (groups int64, total int64, err error) {
		rows, err := c.Query(ctx, query)
		if err != nil {
			return 0, 0, err
		}
		defer rows.Close()
		for rows.Next() {
			var state string
			var n int64
			if err := rows.Scan(&state, &n); err != nil {
				return 0, 0, err
			}
			groups++
			total += n
		}
		return groups, total, nil
	}
	for _, fast := range []bool{true, false} {
		mode := "Fast"
		if !fast {
			mode = "Map"
		}
		b.Run(mode, func(b *testing.B) {
			prev := olap.SetGroupedAggFastPath(fast)
			defer olap.SetGroupedAggFastPath(prev)
			for _, conc := range []int{1, 8, 32} {
				b.Run(fmt.Sprintf("Conc%d", conc), func(b *testing.B) {
					c, err := anydb.Open(scanBenchConfig())
					if err != nil {
						b.Fatal(err)
					}
					b.Cleanup(c.Close)
					ctx := context.Background()
					// Warm-up pass builds the columnar chunks and
					// dictionaries; the timed region measures steady state.
					wantGroups, wantTotal, err := countGroups(c, ctx)
					if err != nil {
						b.Fatal(err)
					}
					if wantGroups == 0 || wantTotal == 0 {
						b.Fatalf("warm-up returned %d groups / %d rows", wantGroups, wantTotal)
					}
					b.ResetTimer()
					b.ReportAllocs()
					var next atomic.Int64
					var wg sync.WaitGroup
					start := time.Now()
					for g := 0; g < conc; g++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for next.Add(1) <= int64(b.N) {
								groups, total, err := countGroups(c, ctx)
								if err != nil {
									b.Error(err)
									return
								}
								if groups != wantGroups || total != wantTotal {
									b.Errorf("got %d groups / %d rows, want %d / %d",
										groups, total, wantGroups, wantTotal)
									return
								}
							}
						}()
					}
					wg.Wait()
					if elapsed := time.Since(start); elapsed > 0 {
						b.ReportMetric(float64(b.N)/elapsed.Seconds(), "queries/s")
					}
				})
			}
		})
	}
}

// TestSharedScanConcurrencySpeedup pins the point of the shared-scan
// engine: 32 concurrent same-table analytical queries must deliver at
// least 5× the aggregate throughput of 32 sequential ones. Retried a
// few times so a noisy scheduler cannot fail a healthy engine.
//
// The filter is a LIKE prefix: on the encoded chunks it is a per-row
// dictionary-bitset probe, which concurrent identical queries share
// (one evaluation per chunk) and sequential ones each pay — the
// sharing this test measures. A trivially-satisfiable filter like
// `c_d_id <> 0` no longer works here: it collapses to a chunk-level
// match-all, scans become nearly free, and per-query fixed costs
// dominate both sides.
func TestSharedScanConcurrencySpeedup(t *testing.T) {
	c, err := anydb.Open(scanBenchConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const query = "SELECT COUNT(*) FROM customer WHERE c_state LIKE 'A%'"
	const n = 32
	var want int64
	if err := c.QueryRow(ctx, query).Scan(&want); err != nil {
		t.Fatal(err)
	}
	runOne := func() {
		var got int64
		if err := c.QueryRow(ctx, query).Scan(&got); err != nil {
			t.Error(err)
		} else if got != want {
			t.Errorf("count = %d, want %d", got, want)
		}
	}
	var best float64
	for attempt := 0; attempt < 3; attempt++ {
		seqStart := time.Now()
		for i := 0; i < n; i++ {
			runOne()
		}
		seq := time.Since(seqStart)

		var wg sync.WaitGroup
		concStart := time.Now()
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runOne()
			}()
		}
		wg.Wait()
		conc := time.Since(concStart)
		if t.Failed() {
			t.FailNow()
		}
		speedup := float64(seq) / float64(conc)
		t.Logf("attempt %d: %d sequential in %v, %d concurrent in %v (%.1fx)",
			attempt, n, seq, n, conc, speedup)
		if speedup > best {
			best = speedup
		}
		if best >= 5 {
			return
		}
	}
	t.Fatalf("32 concurrent queries only %.1fx faster than sequential, want >= 5x", best)
}

// BenchmarkPaymentPipelined drives the same payments from the same
// number of goroutines, but each worker opens a Session and keeps a
// window of submissions in flight (SubmitPayment + deferred Wait)
// instead of blocking per transaction — the async-session idiom this
// API exists for.
func BenchmarkPaymentPipelined(b *testing.B) {
	c := openBenchCluster(b)
	const window = 64
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	var wg sync.WaitGroup
	for g := 0; g < submitWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := c.Session()
			defer s.Close()
			futs := make([]*anydb.Future, 0, window)
			flush := func() {
				for _, f := range futs {
					if _, err := f.Wait(ctx); err != nil {
						b.Error(err)
					}
				}
				futs = futs[:0]
			}
			for i := g; i < b.N; i += submitWorkers {
				f, err := s.SubmitPayment(ctx, anydb.Payment{
					Warehouse: i % 4, District: 1 + i%4, Customer: 1 + i%100, Amount: 1,
				})
				if err != nil {
					b.Error(err)
					return
				}
				if futs = append(futs, f); len(futs) == window {
					flush()
				}
			}
			flush()
		}(g)
	}
	wg.Wait()
}

// BenchmarkPaymentDurable is the pipelined payment path with the
// group-commit WAL on (Durability Batch): per-dispatcher logs, one
// fsync per drain cycle. Compare against BenchmarkPaymentPipelined for
// the durability tax; allocs/op stays bounded (the log's record and
// batch buffers amortize), it is not required to hit zero.
func BenchmarkPaymentDurable(b *testing.B) {
	c, err := anydb.Open(anydb.Config{
		Warehouses: 4, Districts: 4, CustomersPerDistrict: 100,
		InitialOrdersPerDist: 10, Items: 100,
		Durability: anydb.DurabilityBatch, WALDir: b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	const window = 64
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	var wg sync.WaitGroup
	for g := 0; g < submitWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := c.Session()
			defer s.Close()
			futs := make([]*anydb.Future, 0, window)
			flush := func() {
				for _, f := range futs {
					if _, err := f.Wait(ctx); err != nil {
						b.Error(err)
					}
				}
				futs = futs[:0]
			}
			for i := g; i < b.N; i += submitWorkers {
				f, err := s.SubmitPayment(ctx, anydb.Payment{
					Warehouse: i % 4, District: 1 + i%4, Customer: 1 + i%100, Amount: 1,
				})
				if err != nil {
					b.Error(err)
					return
				}
				if futs = append(futs, f); len(futs) == window {
					flush()
				}
			}
			flush()
		}(g)
	}
	wg.Wait()
}

// BenchmarkSessionAffinity isolates what Session pinning buys on the
// submission path: the same pipelined payment load driven through
// per-goroutine Sessions (pinned shard, cached epoch, private future
// freelist) versus the session-less entry points (per-call goroutine
// fingerprint, shared future pool). Run with -cpu 1,4; the spread
// between the two sub-benchmarks is the sessions' win.
func BenchmarkSessionAffinity(b *testing.B) {
	const window = 64
	ctx := context.Background()
	for _, sessioned := range []bool{true, false} {
		name := "Session"
		if !sessioned {
			name = "Sessionless"
		}
		b.Run(name, func(b *testing.B) {
			c := openBenchCluster(b)
			b.ResetTimer()
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				submit := c.SubmitPayment
				if sessioned {
					s := c.Session()
					defer s.Close()
					submit = s.SubmitPayment
				}
				futs := make([]*anydb.Future, 0, window)
				flush := func() {
					for _, f := range futs {
						if _, err := f.Wait(ctx); err != nil {
							b.Error(err)
						}
					}
					futs = futs[:0]
				}
				i := 0
				for pb.Next() {
					f, err := submit(ctx, anydb.Payment{
						Warehouse: i % 4, District: 1 + i%4, Customer: 1 + i%100, Amount: 1,
					})
					if err != nil {
						b.Error(err)
						return
					}
					if futs = append(futs, f); len(futs) == window {
						flush()
					}
					i++
				}
				flush()
			})
		})
	}
}
