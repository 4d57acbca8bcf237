#!/bin/sh
# Runs a command with every LP_* variable of the caller's environment
# removed, so an exported override (LP_FAULTS, LP_JOBS, ...) cannot
# decide a gate's outcome; dune does not rerun a rule when the
# environment changes.  The arguments are env(1)'s: optional NAME=VALUE
# pairs, then the command.  Usage: lpenv.sh [NAME=VALUE]... COMMAND [ARG]...
for v in $(env | sed -n 's/^\(LP_[A-Z_]*\)=.*/\1/p'); do unset "$v"; done
exec env "$@"
