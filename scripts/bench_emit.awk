# bench.sh's emitter: reads `go test -bench` output on stdin, echoes it,
# and writes one JSON object per benchmark to the file named by -v out,
# keeping each benchmark's fastest run. With GOMAXPROCS > 1 go test
# prints names as BenchmarkX-<procs>; the suffix is stripped so the names
# join against scripts/perf_budget.json on any host (no benchmark in the
# repository ends in -<digits> by itself).
/^Benchmark/ {
	name = $1; iters = $2; ns = $3 + 0
	sub(/-[0-9]+$/, "", name)
	bop = "null"; aop = "null"; hr = "null"; p99 = "null"
	for (i = 4; i <= NF; i++) {
		if ($i == "B/op") bop = $(i - 1)
		if ($i == "allocs/op") aop = $(i - 1)
		if ($i == "hit_ratio") hr = $(i - 1)
		if ($i == "p99_ns") p99 = $(i - 1)
	}
	if (!(name in min_ns)) { order[n++] = name }
	if (!(name in min_ns) || ns < min_ns[name]) {
		min_ns[name] = ns; best_it[name] = iters
		best_b[name] = bop; best_a[name] = aop; best_h[name] = hr
		best_p[name] = p99
	}
}
{ print }
END {
	if (!n) { printf "[]\n" > out; exit 1 }
	printf "[\n" > out
	for (i = 0; i < n; i++) {
		name = order[i]
		printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"hit_ratio\": %s, \"p99_ns\": %s}%s\n", \
			name, best_it[name], min_ns[name], best_b[name], best_a[name], best_h[name], best_p[name], (i < n - 1 ? "," : "") >> out
	}
	printf "]\n" >> out
}
