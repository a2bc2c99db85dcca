#!/bin/sh
# Print every BENCH_*.json figure export in DIR, in name order, one per
# line.  jobs, elapsed_s and the "host" object describe the harness run
# (wall clock, GC words, memo hit/miss counts), never the modelled
# system, so they are normalised away; everything else must match the
# committed sweep_reduced_json.expected byte for byte.
#
# Usage: sh norm_exports.sh DIR
set -e
LC_ALL=C
export LC_ALL
for f in "$1"/BENCH_*.json; do
  sed -E 's/"jobs":[0-9]+,"elapsed_s":[^,]+,("host":\{[^}]*\},)?/"jobs":0,"elapsed_s":0,/' "$f"
done
