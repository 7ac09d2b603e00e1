#!/bin/sh
# `sdtctl serve` must reject malformed evict/run arguments instead of acting
# on a wrapped or defaulted value: tenant 1 survives `evict 65537` (a 16-bit
# cast would wrap it to tenant 1), and the session exits 1 because it
# rejected commands.
# usage: sdtctl_serve_malformed.sh <sdtctl binary> <examples/configs/ring6.json>
out=$(printf 'evict 65537\nrun -5\nrun abc\nstatus\nquit\n' | "$1" serve "$2" --switches 3)
status=$?
printf '%s\n' "$out"
if [ "$status" -ne 1 ]; then
  echo "FAIL: expected exit status 1, got $status"
  exit 1
fi
if ! printf '%s\n' "$out" | grep -q "tenant 1 'ring6'"; then
  echo "FAIL: tenant 1 is no longer listed"
  exit 1
fi
