#!/bin/sh
# Run a command that must fail cleanly (exit status 1, not a crash), and
# check that its output names the reason. The output is echoed, so a test
# can also match it with FAIL_REGULAR_EXPRESSION.
# Usage: cli_expect_error.sh TEXT COMMAND [ARG...]
text=$1
shift
out=$("$@" 2>&1)
rc=$?
printf '%s\n' "$out"
if [ "$rc" -ne 1 ]; then
  printf 'expected exit status 1, got %s, from: %s\n' "$rc" "$*"
  exit 1
fi
case $out in
  *"$text"*) exit 0 ;;
esac
printf 'expected "%s" in the output of: %s\n' "$text" "$*"
exit 1
