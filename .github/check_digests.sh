#!/bin/bash
# Check the seed-1 benchmark artifacts of both workloads against
# perfbench/reference_digests.json; exits 1 at the first mismatch.
# Run from the repository root: bash .github/check_digests.sh
for w in wide_rank loocv_sweep; do
  out=$(python perfbench/run.py --workload "$w" --seconds 0 --trace 0)
  last=${out##*$'\n'}
  echo "$w: $last"
  [[ $last == *'"correct": true'* ]] || exit 1
done
