#!/usr/bin/env bash
# Runs fixed lpcc invocations and prints, for each, its exit status,
# stdout and stderr, then whether every help page renders.  It leaves
# the energy profile of fir (profile-fir.json, profile-fir.folded)
# behind.  The dune runtest rule diffs the result against
# golden_cli.txt; after a deliberate CLI change, regenerate it with
# `dune promote`.  Usage: run.sh PATH/TO/lpcc.exe PATH/TO/lpccd.exe
set -u
LPCC=$1
LPCCD=$2

show() {
  printf -- '--- exit %d\n--- stdout\n' "$1"
  cat out.txt
  printf -- '--- stderr\n'
  cat err.txt
  printf '\n'
}

lpcc() {
  printf '=== lpcc %s\n' "$*"
  "$LPCC" "$@" > out.txt 2> err.txt
  show $?
}

lpcc run -w fir -k full
lpcc run small.mc
lpcc run -w prodcons -m farmem -t 8
lpcc run -w fir -m pacduo -c 8
lpcc run -w fir -k baseline --passes 'constprop,fix(simplify-cfg,dce)'
lpcc run -w fir --passes 'fix('
lpcc run -w bogus
lpcc run
lpcc run small.mc -w fir
lpcc run bad.mc
lpcc run -w fir --faults post-pass@fir
lpcc run -w fir --faults 'no-such-point@fir'
lpcc run -w fir --faults worker
lpcc explain -w dotprod -k full

rm -f report.json
printf '=== LP_REPORT=report.json lpcc explain -w dotprod -k full\n'
LP_REPORT=report.json "$LPCC" explain -w dotprod -k full > out.txt 2> err.txt
show $?
if [ -f report.json ]; then
  printf 'report.json: exists, %s\n\n' \
    "$(grep -o '"simulations": [0-9][0-9]*' report.json)"
else
  printf 'report.json: absent\n\n'
fi

lpcc dump small.mc
lpcc dump -s small.mc
lpcc dump -s -k baseline small.mc
lpcc detect -w fir
lpcc detect small.mc
lpcc profile -w fir
lpcc tune --budget 10
lpcc tune -w bogus
lpcc sweep -w fir -m generic -m pacduo
lpcc sweep -w fdotprod -m pacduo
lpcc sweep -w fir -m generic --faults worker@fir/full
lpcc sweep -m bogus
lpcc pipeline --passes 'constprop,fix(simplify-cfg,dce)'
lpcc machines
lpcc workloads

# the crossover the machine zoo exists to surface: fir's winning
# configuration depends on the machine
lpcc sweep -w fir -w memops -m generic -m biglittle -m farmem

# a tuned schedule file replays through the normal driver
lpcc tune --budget 20 --seed 1 --out tuned.sched
printf -- '--- tuned.sched\n'
cat tuned.sched
printf '\n'
lpcc run -w jpegblocks -k baseline --passes @tuned.sched

# the profiler's artifacts, compactly: each run's exit status and
# stderr, each file's schema and length, and the diff of two of them
quiet() {
  printf '=== lpcc %s\n' "$*"
  "$LPCC" "$@" > out.txt 2> err.txt
  printf -- '--- exit %d\n--- stderr\n' $?
  cat err.txt
  printf '\n'
}
quiet profile -w fir -k full --json profile-fir.json --flame profile-fir.folded
quiet profile -w matmul -k full --json profile-matmul.json
for f in profile-fir.json profile-matmul.json; do
  printf '%s: %s, %d lines\n' "$f" "$(grep -m 1 -o '"schema": "[^"]*"' "$f")" \
    "$(wc -l < "$f")"
done
printf 'profile-fir.folded: %d lines, %d not "stack weight"\n\n' \
  "$(wc -l < profile-fir.folded)" \
  "$(grep -c -v -E '^[^;]+;.+ [0-9]+$' profile-fir.folded)"
lpcc profile --diff profile-fir.json profile-matmul.json

# every help page renders: bad cmdliner markup in a doc string prints
# "cmdliner error" instead
printf '=== every help page\n'
help() {
  name=$1
  shift
  if "$@" --help=plain 2>&1 | grep -q 'cmdliner error'; then
    printf '%s --help=plain: cmdliner error\n' "$name"
  else
    printf '%s --help=plain: ok\n' "$name"
  fi
}
help lpcc "$LPCC"
for cmd in $("$LPCC" --help=plain | sed -n '/^COMMANDS/,/^COMMON OPTIONS/p' |
  awk '/^       [a-z]/ { print $1 }'); do
  help "lpcc $cmd" "$LPCC" "$cmd"
done
help lpccd "$LPCCD"
rm -f out.txt err.txt report.json tuned.sched profile-matmul.json
