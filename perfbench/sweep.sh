#!/usr/bin/env bash
# Runs the benchmark RUNS times per workload, each run with the next
# seed, and keeps each run's full output as OUT_DIR/<workload>/seed-<n>.out,
# the layout `perfbench compare` reads. Exits non-zero if any run failed.
# Run from the repository root:
#
#   bash perfbench/sweep.sh OUT_DIR RUNS [FIRST_SEED [TRACE [WORKLOAD...]]]
set -uo pipefail
out=${1:?usage: sweep.sh OUT_DIR RUNS [FIRST_SEED [TRACE [WORKLOAD...]]]}
runs=${2:?usage: sweep.sh OUT_DIR RUNS [FIRST_SEED [TRACE [WORKLOAD...]]]}
first=${3:-1}
trace=${4:-0}
shift $(( $# < 4 ? $# : 4 ))
wls=("$@")
if [[ ${#wls[@]} -eq 0 ]]; then
	wls=(oltp-pipelined olap-burst) # the workloads BENCHMARK.json gates
fi
secs=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
status=0
for ((i = 0; i < runs; i++)); do
	seed=$((first + i))
	for w in "${wls[@]}"; do
		mkdir -p "$out/$w"
		if ! bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$secs" --trace "$trace" >"$out/$w/seed-$(printf %03d "$seed").out"; then
			echo "sweep: $w seed $seed failed" >&2
			status=1
		fi
	done
done
exit $status
