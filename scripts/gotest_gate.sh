#!/usr/bin/env bash
# gotest_gate.sh ARGS... runs `go test -v ARGS` for one line of a make
# gate and fails unless go test passes and the line really ran a test.
# go test exits 0 with "[no tests to run]" when a -run pattern matches
# nothing, and a top-level test still passes when the pattern's subtest
# part matches none of its subtests, so a renamed test would otherwise
# drop out of the gate unnoticed. On success it prints the verdict
# lines only; on failure, everything.
set -u
GO=${GO:-go}

out=$("$GO" test -v "$@" 2>&1)
status=$?
fail() { echo "$out"; echo "FAIL: go test $*"; exit 1; }
[ $status -eq 0 ] || fail "$* exited $status"
echo "$out" | grep -q 'no tests to run' && fail "$* ran no test in some package"
echo "$out" | grep -q -- '--- PASS: ' || fail "$* passed no test"
pattern= prev=
for a in "$@"; do
	[ "$prev" = -run ] && pattern=$a
	prev=$a
done
case "$pattern" in
*/*) echo "$out" | grep -qE '^ +--- PASS: ' || fail "$* passed no subtest of $pattern" ;;
esac
echo "$out" | grep -E '^(--- |ok|FAIL)'
