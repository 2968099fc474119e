#!/bin/sh
# Results-file regression check. Regenerates every deterministic
# ci-scale results file into a temporary directory and compares each,
# header included, byte for byte against the committed copy:
#
#   sh scripts/results.sh
#
# Files checked: results_robustness, results_cascade and results_soak
# at f64 and f32 (the _f32 suffix), plus results_recovery. The runs
# are `fallbench -scale ci -seed 1 -workers 1` with
# `-exp robustness,cascade,recovery` and `-exp soak`, at each
# precision, except that recovery runs once: it ignores -precision
# (its header always reads precision=f64) and writes one unsuffixed
# file, so an f32 run would only repeat it. Exits non-zero on any
# difference or failed run.
# Takes several minutes; it is not part of scripts/verify.sh.
set -e
cd "$(dirname "$0")/.."
root=$(pwd)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/fallbench" ./cmd/fallbench

for prec in f64 f32; do
	exps=robustness,cascade
	if [ "$prec" = f64 ]; then
		exps=$exps,recovery
	fi
	for exp in "$exps" soak; do
		echo "== fallbench -exp $exp -precision $prec"
		(cd "$tmp" && ./fallbench -exp "$exp" -scale ci -seed 1 -workers 1 -precision "$prec" >"run-$exp-$prec.log" 2>&1) || {
			tail -20 "$tmp/run-$exp-$prec.log"
			exit 1
		}
	done
done

status=0
for f in results_robustness.txt results_robustness_f32.txt \
	results_cascade.txt results_cascade_f32.txt \
	results_soak.txt results_soak_f32.txt results_recovery.txt; do
	if cmp -s "$root/$f" "$tmp/$f"; then
		echo "identical: $f"
	else
		echo "DIFFERS:   $f"
		diff "$root/$f" "$tmp/$f" | head -20 || true
		status=1
	fi
done
exit $status
