#!/usr/bin/env bash
# Runs every evaluation table and figure through bench/main.exe, once
# clean and once under a fault spec that degrades some cells to
# ERR(<code>), and prints each run's exit status, stdout and stderr.
# Timing lines are dropped and T5's wall-clock "compile ms" column is
# blanked, so what remains is deterministic.  The clean run's --json
# record, which pins the exact numbers the tables round, is left in
# eval.json.  It also prints how a mistyped experiment id is refused.
# The dune runtest rules diff the result against golden_tables.txt and
# eval.json against bench/baselines/eval.json; after a deliberate table
# change, regenerate both with `dune promote`.
# Usage: run.sh PATH/TO/bench/main.exe
set -u
MAIN=$1
IDS="t1 t2 t3 t3b t4 t5 f1 f2 f3 f4 f5 f6 a1 a2 a3"

# drop the timing lines; blank the digits of T5's compile-ms column
# (its width is set by the header or an ERR cell, never by a number)
mask() {
  grep -v -e 'finished in' -e '^wrote ' |
    awk -F'|' -v OFS='|' '
      /^== T5:/ { t5 = 1; print; next }
      /^== / { t5 = 0 }
      t5 && /^\| / && !/compile ms/ && $3 !~ /ERR/ { gsub(/[0-9.]/, " ", $3) }
      { print }'
}

show() {
  printf -- '--- exit %d\n--- stdout\n' "$1"
  mask < out.txt
  printf -- '--- stderr\n'
  mask < err.txt
  printf '\n'
}

# every table, its cell record written to $1
tables() {
  json=$1
  shift
  printf '=== main.exe %s\n' "$*"
  "$MAIN" $IDS --jobs 1 --json "$json" "$@" > out.txt 2> err.txt
  show $?
}

tables eval.json
tables faults.json --faults 'worker@fir/pg-nomerge,worker@jpegblocks/pg-be16.0000,worker@tri/full-cyclic,pre-simulate@phases'
printf '=== main.exe t9\n'
"$MAIN" t9 > out.txt 2> err.txt
show $?
rm -f out.txt err.txt faults.json
