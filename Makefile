# Same targets CI runs (.github/workflows/ci.yml) — keep them in sync
# so humans and the pipeline always execute identical commands.

GO ?= go

.PHONY: all build test race bench bench-submit bench-json allocs-gate cluster-smoke crash-smoke profile fmt vet figures clean ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Benchmark smoke: one iteration of every figure regeneration, no unit
# tests. The figures are deterministic virtual-time runs, so a single
# iteration is meaningful.
bench:
	$(GO) test -bench . -benchtime=1x -run '^$$' ./...

# Contention smoke: the submission-plane and topology-read benchmarks at
# -cpu 1,4, so a regression that re-serializes the entry (a lock on the
# hot path scales visibly worse at 4) shows up in CI. Short benchtime —
# this watches the slope and allocs/op, not absolute throughput.
# BenchmarkRebalance rides along: live-handoff latency plus the txn/s
# the moves leave intact (the throughput dip). BenchmarkPaymentDurable
# documents the group-commit WAL cost next to the Durability=Off
# baseline (same pipelined shape, Batch mode, one fsync per drain).
# BenchmarkGroupedAgg compares the dense grouped-aggregate fast path
# against the hash-map fallback on the same dictionary-encoded query.
bench-submit:
	$(GO) test -run '^$$' -bench 'BenchmarkSubmitContention|BenchmarkPaymentPipelined|BenchmarkPaymentDurable|BenchmarkSessionAffinity|BenchmarkRebalance|BenchmarkSharedScanConcurrency|BenchmarkGroupedAgg' \
		-benchmem -benchtime 0.3s -cpu 1,4 .
	$(GO) test -run '^$$' -bench 'BenchmarkTopologyRead' -benchmem -benchtime 0.3s -cpu 1,4 ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkScanFlush|BenchmarkJoinProbe' -benchmem -benchtime 0.3s ./internal/olap

# Machine-readable benchmark summary: per-policy + adaptive throughput
# on the evolving workload. CI uploads BENCH_PR12.json as an artifact,
# and benchdata/ keeps the committed per-PR trajectory points for
# comparison. Deterministic virtual-time runs — the short phase keeps
# it a smoke, shapes are scale-invariant.
bench-json:
	$(GO) run ./cmd/anydb-bench -phase-ms 6 -json BENCH_PR12.json

# Deterministic allocation gate: the pipelined payment path (with
# Durability=Off — the default; BenchmarkPaymentPipelined never sets
# Config.Durability, so a WAL hook leaking onto the undurable hot path
# shows up here), the shared scan's streaming flush path and the hash
# join's probe path must report exactly 0 allocs/op. Fixed iteration counts keep the gate reproducible on any
# machine; the payment path runs 100000x so cold-pool warm-up amortizes
# below the integer allocs/op floor (a reintroduced per-op allocation
# still shows as >= 1).
allocs-gate:
	@set -e; \
	out1="$$($(GO) test -run '^$$' -bench 'BenchmarkPaymentPipelined' -benchmem -benchtime 100000x -cpu 4 .)"; \
	out2="$$($(GO) test -run '^$$' -bench 'BenchmarkScanFlush|BenchmarkJoinProbe' -benchmem -benchtime 100x ./internal/olap)"; \
	printf '%s\n%s\n' "$$out1" "$$out2"; \
	printf '%s\n%s\n' "$$out1" "$$out2" | awk '/^Benchmark/ { a=$$(NF-1)+0; if (a != 0) { print "ALLOCS GATE FAIL: " $$1 " = " a " allocs/op"; bad=1 } } END { exit bad }'; \
	echo "allocs gate OK: 0 allocs/op on the payment, scan-flush and join-probe hot paths"

# Two-process cluster smoke: builds the member binary, then runs the
# head + member demo end to end (payments, new-orders, SQL, and a live
# cross-process migration, finishing with Verify + exactly-once).
cluster-smoke:
	$(GO) build ./cmd/anydbd
	$(GO) run ./examples/cluster

# Fault smoke, blocking in CI: the kill-and-restart recovery test
# (SIGKILL mid-burst under Batch durability, reopen, Verify-clean with
# exactly-once acked effects) plus the member-death cluster tests
# (futures resolve typed, partitions pulled home, traffic resumes).
# Run under -race: the failure paths are the racy ones.
crash-smoke:
	$(GO) test -race -count=1 -run 'TestCrashRecovery|TestMemberDeath|TestMemberReconnect|TestSessionAcrossMemberDeath' -v .

# CPU + allocation profiles of the parallel submission hot path (the
# public API entry under GOMAXPROCS submitters). Inspect with `go tool
# pprof cpu.prof` / `go tool pprof -sample_index=alloc_objects mem.prof`;
# add -mutexprofile to verify the uncontended entry takes no mutex.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkSubmitContention/NoChurn' -benchtime 3s \
		-cpuprofile cpu.prof -memprofile mem.prof -mutexprofile mutex.prof -o anydb-profile.test .
	@echo "wrote cpu.prof, mem.prof, mutex.prof (binary: anydb-profile.test)"

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Regenerate every paper figure at full scale.
figures:
	$(GO) run ./cmd/anydb-bench -fig all

# Remove generated build/bench artifacts (everything .gitignore lists).
clean:
	rm -f cpu.prof mem.prof mutex.prof anydb-profile.test anydbd \
		BENCH_PR*.json submit_bench_new.txt

ci: fmt vet build race bench
