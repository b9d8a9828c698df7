#!/bin/sh
# Tier-1 verification: full build (including tests and benches), the
# complete test suite, then the end-to-end smokes in smoke.sh.  Exits
# non-zero on any failure.
set -e
cd "$(dirname "$0")"
dune build @all
dune runtest
./smoke.sh
