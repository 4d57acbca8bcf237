#!/usr/bin/env bash
# Runs every evaluation table and figure through bench/main.exe, once
# clean and once under a fault spec that degrades some cells to
# ERR(<code>), and prints each run's exit status, stdout and stderr.
# Timing lines are dropped and T5's wall-clock "compile ms" column is
# blanked, so what remains is deterministic.  Between the two runs it
# diffs the clean run's --json record against the committed baseline,
# which pins the exact numbers the tables round.  The dune runtest rule
# diffs the result against golden_tables.txt; after a deliberate table
# change, regenerate it with `dune promote`.
# Usage: run.sh PATH/TO/bench/main.exe PATH/TO/bench/baselines/eval.json
set -u
MAIN=$1
BASELINE=$2
IDS="t1 t2 t3 t3b t4 t5 f1 f2 f3 f4 f5 f6 a1 a2 a3"

# the golden output is for the defaults: drop every LP_* override
for v in $(env | sed -n 's/^\(LP_[A-Z_]*\)=.*/\1/p'); do unset "$v"; done

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

tables() {
  printf '=== main.exe %s\n' "$*"
  "$MAIN" $IDS --jobs 1 --json eval.json "$@" > out.txt 2> err.txt
  printf -- '--- exit %d\n--- stdout\n' $?
  mask < out.txt
  printf -- '--- stderr\n'
  mask < err.txt
  printf '\n'
}

tables
diff -u "$BASELINE" eval.json &&
  printf '=== eval.json identical to bench/baselines/eval.json\n'
tables --faults 'worker@fir/pg-nomerge,worker@jpegblocks/pg-be16.0000,worker@tri/full-cyclic,pre-simulate@phases'
rm -f out.txt err.txt eval.json
