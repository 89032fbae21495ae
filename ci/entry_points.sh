#!/usr/bin/env bash
# The entry-point checks CI runs: the installed console script and
# python -m, as a user starts them, with the runtime dependencies alone.
# Run from the repository root after `pip install -e .`; the first
# command that fails (or a refusal that succeeds) ends the script with a
# non-zero status.
set -eo pipefail

# the acceptance anchor: row-sum identity, 462 not 426
freqpred coeffs 5 | grep -qx '5,1,462,row-sum identity sum(alpha)=-1 forces 462; the commonly tabulated 426 is a digit transposition'
python -m freqpred threshold 9/20 0.53
# k = 676385 from the fixed-point enclosure in well under a second; the
# exact plateau stream alone would take more than 11 minutes
freqpred threshold 0.499 0.5009 | grep -qx '0.499,0.5009,676385'
# accuracy exits 1 when its five routes disagree; a float theta's
# routes each round the exact value once, so one differing last bit
# fails this step
freqpred accuracy 71 0.45
freqpred accuracy 71 9/20
# plateau a = 300: all five routes, the expanded one on a row of
# 302 coefficients
freqpred accuracy 601 9/20
freqpred accuracy 601 0.45
# plateau a = 1500: a row of 1,502 coefficients by the exact ratio
freqpred accuracy 3001 9/20 --path expanded
# an exact curve the size of the benchmark's: each plateau's Fraction
# rounded once, the last row and the JSON row count pinned
freqpred curve 9/20 700 | tail -n 1 | grep -qx '700,0.5495992716,0.55,0.0004007284421'
freqpred curve 9/20 700 --format json \
  | python -c 'import json, sys; sys.exit(len(json.load(sys.stdin)) != 700)'
freqpred simulate beta:2,3 71 1000 --seed 1
# a beta prior is simulated as a Polya urn, so no shape is out of reach,
# not even one with nearly all its mass at 0
freqpred simulate beta:1/1000000000,5 71 1000 --seed 1
# a horizon past 255 keeps the running counts in uint16
freqpred simulate 0.4731 300 400 --seed 1
freqpred posterior discrete:2/5=1/2,3/5=1/2 20 11
freqpred posterior beta:1,1 4 3 --format json
# 601 beta rows, each cut at 2n = k + beta - alpha; a per-cell build
# of these 180,901 cells would take ~2 s
freqpred posterior beta:7/2,1/2 600 300
# a prior with all its mass at 1 rules out every count below k:
# optimal_array gives those cells 1/2 and the query itself exits 0
freqpred posterior discrete:1=1 3 3
# ... while asking for a ruled-out count is refused with exit 1;
# `!` would not fail under set -e, so test the status explicitly
if freqpred posterior discrete:1=1 3 2; then exit 1; fi
