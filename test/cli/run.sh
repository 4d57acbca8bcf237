#!/usr/bin/env bash
# Runs fixed lpcc invocations and prints, for each, its exit status,
# stdout and stderr.  The dune runtest rule diffs the result against
# golden_cli.txt; after a deliberate CLI change, regenerate it with
# `dune promote`.  Usage: run.sh PATH/TO/lpcc.exe
set -u
LPCC=$1

# the golden output is for the defaults: drop every LP_* override
for v in $(env | sed -n 's/^\(LP_[A-Z_]*\)=.*/\1/p'); do unset "$v"; done

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
lpcc sweep -m bogus
lpcc pipeline --passes 'constprop,fix(simplify-cfg,dce)'
lpcc machines
lpcc workloads
rm -f out.txt err.txt report.json
