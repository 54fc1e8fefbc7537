#!/usr/bin/env bash
# Live-vs-sim differential oracle: a real multi-process deployment (one
# ssps_deploy coordinator + ssps_noded daemons over localhost TCP) must
# produce a JSON report byte-identical to the in-process simulator's for
# the same (scenario, seed, nodes) — after stripping the deploy_* header
# keys only the live run carries. Covered shapes: n = 64 steady across 4
# processes and across 2, the scrambled churn-wave variant (multi-topic +
# stabilization-from-arbitrary-state) across 3, and scale-steady at
# n = 256 across 3. The 4-daemon steady shape runs with --dup-acks (every
# daemon sends each barrier ack twice), so the coordinator's duplicate-ack
# branch runs end to end. Two daemons are the smallest fleet: each
# barrier digest and the final report then have exactly one second
# opinion, and a disagreement has no majority. The n = 256 shape forwards ~500 KB per target at its
# burst units, so relay frames straddle the daemons' 64 KiB write batches
# and the receivers' reads: the assembler compacts its buffer between the
# frames it hands out as views, which the sanitizer build checks.
#
#   usage: deploy_differential.sh <ssps_deploy> <ssps_noded> <ssps_run>
set -u

deploy=${1:?usage: deploy_differential.sh <ssps_deploy> <ssps_noded> <ssps_run>}
noded=${2:?usage: deploy_differential.sh <ssps_deploy> <ssps_noded> <ssps_run>}
run=${3:?usage: deploy_differential.sh <ssps_deploy> <ssps_noded> <ssps_run>}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
status=0

# check <name> <scenario> <seed> <nodes> <procs> <flags for both> [<deploy-only flags>]
check() {
  local name=$1 scenario=$2 seed=$3 nodes=$4 procs=$5 extra=$6 deploy_extra=${7:-}
  local live="$workdir/$name-live.json" sim="$workdir/$name-sim.json"
  if ! "$deploy" --noded "$noded" --scenario "$scenario" --seed "$seed" \
      --nodes "$nodes" --procs "$procs" $extra $deploy_extra --quiet --out "$live"; then
    echo "FAILED DEPLOY: $name"
    status=1
    return
  fi
  if ! "$run" --scenario "$scenario" --seed "$seed" --nodes "$nodes" \
      $extra --quiet --out "$sim"; then
    echo "FAILED SIM: $name"
    status=1
    return
  fi
  # Guard against a vacuous pass: the live report must actually carry the
  # deployment header (i.e. really came from the multi-process path).
  if ! grep -q '"deploy_procs"' "$live"; then
    echo "MISSING DEPLOY HEADER: $name"
    status=1
    return
  fi
  if ! diff <(grep -v '"deploy_' "$live") "$sim" >/dev/null; then
    echo "DIFFERENTIAL MISMATCH: $name (live vs sim)"
    diff <(grep -v '"deploy_' "$live") "$sim" | head -20
    status=1
    return
  fi
  echo "ok: $name"
}

check steady-64 steady 7 64 4 "" "--dup-acks"
check steady-64-2procs steady 7 64 2 ""
check churn-wave-scrambled-64 churn-wave 5 64 3 "--scramble"
check scale-steady-256 scale-steady 7 256 3 ""

exit $status
