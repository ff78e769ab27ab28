#!/usr/bin/env bash
# Checks the CI performance floors. Run from the repository root:
#
#   bash .github/check-floors.sh [TABLE [BENCH_OUTPUT]]
#
# TABLE (default .github/perf-floors.txt) lists one floor per row: package,
# full benchmark name, metric unit, floor, reason. Each distinct benchmark
# in it runs once with -benchtime=1x. With BENCH_OUTPUT, the checker parses
# that saved `go test -bench` output instead of running anything, which is
# how CI self-tests it.
#
# Prints value vs. floor for every row and exits non-zero if a benchmark
# run fails, the output reports a FAIL, a row matches no output line, or a
# metric is below its floor.
set -euo pipefail

table=${1:-.github/perf-floors.txt}
out=${2:-}

if [ -z "$out" ]; then
	out=$(mktemp)
	trap 'rm -f "$out"' EXIT
	# Distinct (package, benchmark) pairs in table order.
	mapfile -t runs < <(awk '!/^[ \t]*(#|$)/ && !seen[$1 " " $2]++ { print $1 " " $2 }' "$table")
	for run in "${runs[@]}"; do
		read -r pkg name <<<"$run"
		# Anchor each level: BenchmarkA/sub -> ^BenchmarkA$/^sub$.
		pattern=$(sed -e 's|/|$/^|g' -e 's|^|^|' -e 's|$|$|' <<<"$name")
		go test -run='^$' -bench="$pattern" -benchtime=1x "$pkg" | tee -a "$out"
	done
fi

awk '
	FNR == NR {
		if ($0 ~ /^[ \t]*(#|$)/) next
		n++
		name[n] = $2; unit[n] = $3; floor[n] = $4
		want[$2, $3] = 1
		next
	}
	/^[ \t]*--- FAIL/ || /^FAIL/ { failed = 1; print "benchmark failure: " $0 }
	/^Benchmark/ {
		bench = $1
		sub(/-[0-9]+$/, "", bench)
		for (i = 2; i < NF; i++)
			if ((bench, $(i + 1)) in want) value[bench, $(i + 1)] = $i
	}
	END {
		if (n == 0) { print "no floors in the table" > "/dev/stderr"; exit 1 }
		bad = failed
		for (r = 1; r <= n; r++) {
			if (!((name[r], unit[r]) in value)) {
				printf "%-38s %-10s   missing (floor %s)\n", name[r], unit[r], floor[r]
				bad = 1
				continue
			}
			v = value[name[r], unit[r]]
			verdict = "ok"
			if (v + 0 < floor[r] + 0) { verdict = "BELOW FLOOR"; bad = 1 }
			printf "%-38s %-10s %8.3f (floor %s) %s\n", name[r], unit[r], v, floor[r], verdict
		}
		if (bad) print "performance floors not met" > "/dev/stderr"
		exit bad
	}
' "$table" "$out"
