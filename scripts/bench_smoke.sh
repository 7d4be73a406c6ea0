#!/bin/sh
# bench_smoke.sh — allocation-regression gates for the experiment suite and
# the machine-scale paths.
#
# Each gate runs one benchmark once and compares its allocs/op against the
# budget checked in as BENCH_budget.txt. A gate fails when allocs/op exceeds
# its budget by more than 10%: the hot-path refactors hold their gains
# through an explicit number, not through vigilance.
#
# After an intentional allocation change, refresh the budget, e.g.:
#   go test -run '^$' -bench '^BenchmarkSuiteSerial$' -benchmem -benchtime 1x .
# and copy the new allocs/op into BENCH_budget.txt with a justification in
# the PR description.
set -eu
cd "$(dirname "$0")/.."

# gate KEY BENCH LABEL — run root-package benchmark BENCH (an exact name)
# once and fail when its allocs/op exceeds the BENCH_budget.txt entry KEY by
# more than 10%. LABEL (may be empty) names the gate in the FAIL/OK lines.
gate() {
    key=$1 bench=$2 label=$3
    budget=$(awk -v k="$key" '$1 == k {print $2}' BENCH_budget.txt)
    if [ -z "$budget" ]; then
        echo "bench_smoke: no $key entry in BENCH_budget.txt" >&2
        exit 2
    fi
    out=$(go test -run '^$' -bench "^$bench\$" -benchmem -benchtime 1x -timeout 30m .)
    echo "$out"
    allocs=$(echo "$out" | awk -v b="$bench" 'index($1, b) == 1 {for (i = 1; i <= NF; i++) if ($i == "allocs/op") print $(i-1)}')
    if [ -z "$allocs" ]; then
        echo "bench_smoke: could not find allocs/op in $bench output" >&2
        exit 2
    fi
    limit=$((budget + budget / 10))
    if [ "$allocs" -gt "$limit" ]; then
        echo "bench_smoke: FAIL — ${label:+$label }allocs/op $allocs exceeds budget $budget (+10% = $limit)" >&2
        exit 1
    fi
    echo "bench_smoke: OK — ${label:+$label }allocs/op $allocs within budget $budget (+10% = $limit)"
}

# The quick paper suite through the serial harness.
gate allocs_per_op BenchmarkSuiteSerial ""

# The Daint-class serial ExactUGAL path: a 5376-node system built and run per
# op, so the count is the machine-scale construction cost plus a short
# alltoall — it must not grow with the packets routed.
gate daint_allocs_per_op BenchmarkMachineScaleDaint daint

# The open-arrival scheduling engine: 300k job events drained on the Daint
# geometry. The subsystem's design contract is that steady-state operation
# allocates nothing per job (the count is the fixed system-build cost, not
# O(events)).
gate openstream_allocs_per_op BenchmarkOpenStream openstream

# The decision-trace data path: the counterfactual experiment with the
# recorder on. Fixed-size records go into rings preallocated at system build,
# so there are zero allocations per recorded decision (TestRouteAllocationFree
# pins the per-call path; this gate pins the end-to-end experiment).
gate counterfactual_allocs_per_op BenchmarkCounterfactual counterfactual
