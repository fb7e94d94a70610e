#!/usr/bin/env bash
# Fail when a `go test` step in the CI workflow selects no test.
#
# Usage:
#
#   scripts/check-ci-tests.sh [workflow.yml]
#
# `go test -run 'Pat' ./pkg` passes when Pat matches nothing, so a
# renamed or deleted test silently turns its CI step into a no-op. For
# every `go test` line of the workflow (default .github/workflows/ci.yml)
# this script takes the -run and -fuzz patterns and checks, with
# `go test -list`, that each of their top-level alternatives (the parts
# between `|`) names at least one test, fuzz target, benchmark or
# example in the packages that line tests. The `^$` pattern, which
# deliberately selects no test, is skipped.
set -euo pipefail
set -f # patterns are not globs
cd "$(dirname "$0")/.."
workflow=${1:-.github/workflows/ci.yml}

status=0
checked=0
while IFS= read -r cmd; do
	pkgs=$(grep -oE '(^| )\./[^ ]*' <<<"$cmd" | tr -d ' ' | tr '\n' ' ' || true)
	[ -n "$pkgs" ] || continue
	for pat in $(grep -oE -- "-(run|fuzz) '[^']*'" <<<"$cmd" | sed -E "s/^-(run|fuzz) '(.*)'$/\2/" || true); do
		[ "$pat" = '^$' ] && continue
		IFS='|' read -ra alts <<<"$pat"
		for alt in "${alts[@]}"; do
			# shellcheck disable=SC2086 # pkgs is a space-separated list
			if ! listed=$(go test -list "$alt" $pkgs 2>&1); then
				echo "go test -list '$alt' $pkgs failed:" >&2
				echo "$listed" >&2
				status=1
				continue
			fi
			checked=$((checked + 1))
			if ! grep -qE '^(Test|Fuzz|Benchmark|Example)' <<<"$listed"; then
				echo "$workflow: -run/-fuzz alternative '$alt' selects no test in $pkgs" >&2
				status=1
			fi
		done
	done
done < <(grep -oE 'go test .*' "$workflow")

echo "checked $checked test patterns in $workflow"
exit $status
