#!/usr/bin/env bash
# Fails when a `go test -run` or `-bench` pattern in the CI workflow, or one
# alternative of it, lists no test (for -run) or no benchmark (for -bench)
# in the packages its command names: `go test` passes silently on a pattern
# that matches nothing, so a renamed test or benchmark would drop out of its
# step unnoticed. Only single-quoted patterns are read: `-run '^$'` (run no
# test, benchmarks only) and double-quoted patterns built from shell
# variables are skipped. A -bench pattern is checked on its first `/`
# segment, the one that names the top-level benchmark.
#
#   bash .github/check-run-patterns.sh [workflow.yml]
set -euo pipefail
wf=${1:-.github/workflows/ci.yml}
bad=0
checked=0
# One logical command per line: backslash continuations joined.
while read -r line; do
	for flag in run bench; do
		pat=$(sed -nE "s/.*-$flag '([^']+)'.*/\1/p" <<<"$line")
		[ -z "$pat" ] || [ "$pat" = '^$' ] && continue
		want='^(Test|Example|Fuzz)'
		if [ $flag = bench ]; then
			pat=${pat%%/*}
			want='^Benchmark'
		fi
		pkgs=$(grep -oE '\./[^ ]*' <<<"${line#*-$flag}" | xargs || true)
		[ -z "$pkgs" ] && pkgs=.
		IFS='|' read -ra alts <<<"$pat"
		for alt in "${alts[@]}"; do
			checked=$((checked + 1))
			# shellcheck disable=SC2086
			listed=$(go test -list "$alt" $pkgs)
			if ! grep -qE "$want" <<<"$listed"; then
				echo "$wf: -$flag alternative '$alt' lists nothing matching $want in $pkgs" >&2
				bad=1
			fi
		done
	done
done < <(sed -e ':a' -e '/\\$/N' -e 's/\\\n//' -e 'ta' "$wf" | grep -E "go test .*-(run|bench) '[^']+'")
echo "$checked -run/-bench alternatives checked"
exit $bad
