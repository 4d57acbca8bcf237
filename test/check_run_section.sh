#!/bin/sh
# The compiled simulator's section loop, Sim.run_section, must stay
# call-free in the dev build (docs/DESIGN.md, "The loop is call-free"):
# OCaml without flambda spills every float local around a call, so one
# call in the loop moves its clock and ledger accumulators to the stack.
#
# This disassembles run_section (objdump -dr, from its symbol to the
# next symbol) and fails unless
# - its calls, the relocations of a call or jump to another function
#   (R_X86_64_PLT32), are exactly caml_call_gc x1 (the safepoint poll),
#   caml_raise_exn x8 (the division-by-zero raises the compiler puts
#   behind the loop's own divisor checks) and at most one caml_modify
#   (the write-back of the frame's block, after the loop);
# - it makes no indirect call;
# - no instruction moves an xmm register to or from the stack.
# References to data (jump tables, the module block, the
# Division_by_zero exception, the float negation mask) are not calls.
#
# It also prints the stack frame the prologue reserves.  OCaml 5 gives
# a function whose frame, return address included, reaches
# Stack_threshold (32 words, 256 bytes) a prologue stack-limit check,
# whose slow path calls caml_call_realloc_stack: that call fails the
# rule above, so the frame must stay at 240 bytes or less (232 reserved
# plus the return address; frames are 16-byte aligned).
#
# `dune runtest` runs it on the built object (test/gates/dune); by
# hand, from the root of a checkout after `dune build`:
#   sh test/check_run_section.sh [OBJECT]
# Without objdump on the PATH it says that it skipped the check and
# passes; a missing object or symbol still fails.
set -eu

obj=${1:-_build/default/lib/sim/.lp_sim.objs/native/lp_sim__Sim.o}
if [ ! -f "$obj" ]; then
  echo "check_run_section: no $obj (run dune build first)"
  exit 2
fi
if ! command -v objdump > /dev/null 2>&1; then
  echo "check_run_section: no objdump on the PATH, check skipped"
  exit 0
fi

dis=$(objdump -dr "$obj" | awk '
  /^[0-9a-f]+ <camlLp_sim__Sim(\.|__)run_section_[0-9]+>:$/ { f = 1; print; next }
  f && /^[0-9a-f]+ <.*>:$/ { exit }
  f')
if [ -z "$dis" ]; then
  echo "check_run_section: run_section not found in $obj"
  exit 1
fi

calls=$(printf '%s\n' "$dis" | awk '
  $2 == "R_X86_64_PLT32" { sub(/[-+]0x[0-9a-f]+$/, "", $3); n[$3]++ }
  END { for (s in n) printf "%s x%d\n", s, n[s] }' | sort)
frame=$(printf '%s\n' "$dis" | awk '
  /sub +\$0x[0-9a-f]+,%rsp/ { sub(/.*\$/, ""); sub(/,.*/, ""); print; exit }')
echo "run_section: $(printf '%s\n' "$dis" | wc -l) lines of objdump, frame ${frame:-0x0} bytes reserved"
echo "$calls" | sed 's/^/  call /'

status=0
unexpected=$(echo "$calls" | grep -v -x -e 'caml_call_gc x1' \
  -e 'caml_raise_exn x8' -e 'caml_modify x1' || true)
if [ -n "$unexpected" ]; then
  echo "check_run_section: unexpected calls:"
  echo "$unexpected" | sed 's/^/  /'
  status=1
fi
for want in 'caml_call_gc x1' 'caml_raise_exn x8'; do
  if ! echo "$calls" | grep -q -x -e "$want"; then
    echo "check_run_section: expected $want"
    status=1
  fi
done
indirect=$(printf '%s\n' "$dis" | grep -E 'call[a-z]*[[:space:]]+\*' || true)
if [ -n "$indirect" ]; then
  echo "check_run_section: indirect calls:"
  echo "$indirect"
  status=1
fi
spills=$(printf '%s\n' "$dis" | grep -E '%xmm[0-9]+' | grep -E '\(%rsp\)' || true)
if [ -n "$spills" ]; then
  echo "check_run_section: xmm registers moved to or from the stack:"
  echo "$spills"
  status=1
fi
exit $status
