#!/usr/bin/env bash
# Fails when a `go test -run` pattern in the CI workflow, or one
# alternative of it, lists no test in the packages its command names:
# `go test -run` passes silently on a pattern that matches nothing, so a
# renamed test would drop out of its step unnoticed. Only single-quoted
# patterns are read: `-run '^$'` (run no test, benchmarks only) and
# double-quoted patterns built from shell variables are skipped.
#
#   bash .github/check-run-patterns.sh [workflow.yml]
set -euo pipefail
wf=${1:-.github/workflows/ci.yml}
bad=0
checked=0
# One logical command per line: backslash continuations joined.
while read -r line; do
	pat=$(sed -E "s/.*-run '([^']+)'.*/\1/" <<<"$line")
	[ "$pat" = '^$' ] && continue
	pkgs=$(grep -oE '\./[^ ]*' <<<"${line#*-run}" | xargs || true)
	[ -z "$pkgs" ] && pkgs=.
	IFS='|' read -ra alts <<<"$pat"
	for alt in "${alts[@]}"; do
		checked=$((checked + 1))
		# shellcheck disable=SC2086
		listed=$(go test -list "$alt" $pkgs)
		if ! grep -qE '^(Test|Example|Fuzz)' <<<"$listed"; then
			echo "$wf: -run alternative '$alt' lists no test in $pkgs" >&2
			bad=1
		fi
	done
done < <(sed -e ':a' -e '/\\$/N' -e 's/\\\n//' -e 'ta' "$wf" | grep -E "go test .*-run '[^']+'")
echo "$checked -run alternatives checked"
exit $bad
