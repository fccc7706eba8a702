#!/usr/bin/env bash
# Prints odperf's per-unit determinism signatures for seed 1: the first
# four units (odperf's kSignatureUnits) of each workload, one line per
# unit, prefixed with the workload name.  The host-time fields (ratio=,
# unit_ms=, ref_ms=, log_lines=) are stripped, so what remains -- the unit
# seed and its events=/hash= outcome -- is the same on every run of a
# given build.
#
# tests/data/odperf_signatures.txt is the committed output, and CI diffs a
# fresh run against it exactly.  Regenerate it only in a change that means
# to move simulation outcomes:
#
#   tools/odperf_signatures.sh > tests/data/odperf_signatures.txt
#
# odperf/run.py builds odperf into .bench_build/odperf on first use; build
# output goes to stderr.
set -euo pipefail
cd "$(dirname "$0")/.."
for workload in fleet_contended fleet_cached goal_defended; do
  python3 odperf/run.py --workload "$workload" --seed 1 --seconds 0.001 \
      --trace 0 |
    grep -E '^unit [0-9]+ seed=' |
    sed -E 's/ ratio=[^ ]+ unit_ms=[^ ]+ ref_ms=[^ ]+ log_lines=[^ ]+//' |
    sed "s/^/$workload /"
done
