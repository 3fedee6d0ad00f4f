#!/usr/bin/env bash
# Engine-layer benchmarks with their spread. Runs the engine's round
# delivery benchmarks (the dual clique under the PlanScalar reference walk,
# under PlanAuto, which takes the clique cover there (the /cover row), and
# under the forced bitmap plan; the n = 10^4 degree-2048 circulant under
# every plan), the block-sparse kernel benchmarks and the step-layer
# benchmark (BenchmarkStepLayer: one presample-shaped n = 1024 dual-clique
# trial of 4n rounds, permuted decay and plain decay) COUNT times each, then
# prints one JSON object per benchmark: median, min and max ns/op (and ns
# per node-round where the benchmark reports it), and the median and min
# B/op and allocs/op. The min is the steady state: a run whose engine
# scratch pool was emptied by a GC pays one fresh Θ(n) scratch and process
# slab (~2·10⁴ allocs at n = 10⁵), spread over its iterations.
#
#   scripts/bench-delivery.sh [COUNT]    # COUNT defaults to 5
#
# Run it from the root of a checkout; run it in two checkouts to compare
# them. Benchmarks a checkout lacks are simply absent from its output.
set -euo pipefail

count=${1:-5}
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench 'BenchmarkEngineRoundDelivery/dual-clique' \
	-benchmem -benchtime 200x -count "$count" ./internal/radio/ >>"$raw"
go test -run '^$' -bench 'BenchmarkEngineRoundDelivery/dense|BenchmarkSparseDelivery' \
	-benchmem -benchtime 10x -count "$count" ./internal/radio/ >>"$raw"
go test -run '^$' -bench 'BenchmarkStepLayer' \
	-benchmem -benchtime 5x -count "$count" ./internal/radio/ >>"$raw"

# name ns/op ns/node-round B/op allocs/op, one line per run, grouped by
# name; ns/node-round is "-" for benchmarks that do not report it.
awk '$1 ~ /^Benchmark/ && $4 == "ns/op" {
	name = $1; sub(/-[0-9]+$/, "", name)
	delete v
	for (i = 5; i < NF; i += 2) v[$(i + 1)] = $i
	print name, $3, ("ns/node-round" in v) ? v["ns/node-round"] : "-", v["B/op"], v["allocs/op"]
}' "$raw" | sort -k1,1 -s | awk '
function median(a, k,    i, j, t) {
	for (i = 2; i <= k; i++)
		for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
	return (k % 2) ? a[(k + 1) / 2] : (a[k / 2] + a[k / 2 + 1]) / 2
}
function flush() {
	if (k == 0) return
	mns = median(ns, k); mb = median(bop, k); ma = median(al, k)
	nnr = ""
	if (nr[1] != "-") {
		mnr = median(nr, k)
		nnr = sprintf(", \"ns_node_round\": {\"median\": %.2f, \"min\": %.2f, \"max\": %.2f}", mnr, nr[1], nr[k])
	}
	printf "{\"name\": \"%s\", \"runs\": %d, \"ns_op\": {\"median\": %d, \"min\": %d, \"max\": %d}%s, \"b_op\": {\"median\": %d, \"min\": %d}, \"allocs_op\": {\"median\": %d, \"min\": %d}}\n",
		cur, k, mns, ns[1], ns[k], nnr, mb, bop[1], ma, al[1]
}
$1 != cur { flush(); cur = $1; k = 0 }
{ k++; ns[k] = $2; nr[k] = $3; bop[k] = $4; al[k] = $5 }
END { flush() }'
