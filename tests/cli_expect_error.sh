#!/bin/sh
# Run a command that must fail, and check that its output names the
# reason. Usage: cli_expect_error.sh TEXT COMMAND [ARG...]
text=$1
shift
if out=$("$@" 2>&1); then
  printf 'expected a nonzero exit from: %s\n%s\n' "$*" "$out"
  exit 1
fi
case $out in
  *"$text"*) exit 0 ;;
esac
printf 'expected "%s" in the output of: %s\n%s\n' "$text" "$*" "$out"
exit 1
