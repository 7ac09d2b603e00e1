#!/bin/sh
# `sdtctl` must reject a numeric flag that is not a whole decimal number in
# its range with exit status 2 and an error naming the flag, before it sizes
# anything from the value (a 2e9-switch plant or 2e9 standbys would abort in
# std::bad_alloc), and valid values must still run.
# usage: sdtctl_flags_malformed.sh <sdtctl binary> <examples/configs/ring6.json>
#            <examples/configs/line6.json> [address-space cap in KiB]
sdtctl=$1
ring=$2
line=$3
# The cap makes a regression that does allocate from a huge value fail fast
# instead of exhausting memory. Sanitizer builds pass none: their runtimes
# reserve terabytes of address space.
if [ -n "$4" ]; then ulimit -v "$4"; fi
fail=0

expect_rejected() {
  flag=$1
  shift
  err=$("$sdtctl" "$@" 2>&1 >/dev/null </dev/null)
  status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: sdtctl $*: expected exit status 2, got $status"
    fail=1
  elif ! printf '%s\n' "$err" | grep -q -- "^$flag: "; then
    echo "FAIL: sdtctl $*: the error does not name $flag: $err"
    fail=1
  fi
}

expect_ok() {
  "$sdtctl" "$@" >/dev/null 2>&1 </dev/null
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "FAIL: sdtctl $*: expected exit status 0, got $status"
    fail=1
  fi
}

expect_rejected --switches check "$ring" --switches 2000000000
expect_rejected --switches check "$ring" --switches 99999999999
expect_rejected --switches check "$ring" --switches 3x
expect_rejected --switches check "$ring" --switches 0
expect_rejected --standbys serve "$ring" --standbys 2000000000
expect_rejected --flex check "$ring" --flex -2
expect_rejected --flex check "$ring" --flex 1073741824
expect_rejected --reboot-switch recover "$ring" "$line" --reboot-switch 7
expect_rejected --reboot-switch recover "$ring" "$line" --reboot-switch -1

expect_ok check "$ring" --switches 3 --flex 2
expect_ok recover "$ring" "$line" --reboot-switch 1
expect_ok recover "$ring" "$line" --reboot-switch 2 --switches 3
exit $fail
