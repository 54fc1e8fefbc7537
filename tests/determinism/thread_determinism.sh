#!/usr/bin/env bash
# Twin-run determinism across worker counts: for every builtin scenario,
# plain and scrambled-start, the 2- and 4-thread JSON reports must be
# byte-identical to the 1-thread report; so must one scale-steady run at
# n = 1024 on 4 workers, whose rounds carry batches of tens of thousands
# of messages through every worker's chunk of the grouping and its parked
# lanes. The only field allowed to differ is the "threads" header line (it
# records the worker count by design), which is stripped before
# comparing. Registered with CTest; also the shape CI runs on pull
# requests.
#
#   usage: thread_determinism.sh <path-to-ssps_run>
set -u

run=${1:?usage: thread_determinism.sh <path-to-ssps_run>}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
status=0

# Guard against a vacuous pass: if --list fails or prints nothing, the
# loop below would compare zero scenarios and exit green.
scenarios=$("$run" --list) || {
  echo "FAILED: $run --list exited nonzero"
  exit 1
}
if [ -z "$scenarios" ]; then
  echo "FAILED: $run --list printed no scenarios"
  exit 1
fi

for scenario in $scenarios; do
  for variant in plain scrambled; do
    flags=""
    seed=7
    if [ "$variant" = scrambled ]; then
      flags="--scramble"
      seed=5
    fi
    ref="$workdir/$scenario-$variant-1.json"
    if ! "$run" --scenario "$scenario" --seed "$seed" --nodes 12 --threads 1 \
        $flags --quiet --out "$ref"; then
      echo "FAILED RUN: $scenario ($variant) 1 worker"
      status=1
      continue
    fi
    # The byte comparison below is only meaningful if the telemetry
    # sections are actually in the reports being compared.
    for section in '"latency"' '"timeseries"'; do
      if ! grep -q "$section" "$ref"; then
        echo "MISSING SECTION: $scenario ($variant) report lacks $section"
        status=1
      fi
    done
    for threads in 2 4; do
      out="$workdir/$scenario-$variant-$threads.json"
      if ! "$run" --scenario "$scenario" --seed "$seed" --nodes 12 \
          --threads "$threads" $flags --quiet --out "$out"; then
        echo "FAILED RUN: $scenario ($variant) $threads workers"
        status=1
        continue
      fi
      if ! diff <(grep -v '"threads"' "$ref") <(grep -v '"threads"' "$out") \
          >/dev/null; then
        echo "TRACE MISMATCH: $scenario ($variant) $threads workers vs serial"
        status=1
      fi
    done
  done
done

for threads in 1 4; do
  if ! "$run" --scenario scale-steady --seed 7 --nodes 1024 --threads "$threads" \
      --quiet --out "$workdir/scale-$threads.json"; then
    echo "FAILED RUN: scale-steady n = 1024, $threads workers"
    status=1
  fi
done
if ! diff <(grep -v '"threads"' "$workdir/scale-1.json") \
    <(grep -v '"threads"' "$workdir/scale-4.json") >/dev/null; then
  echo "TRACE MISMATCH: scale-steady n = 1024, 4 workers vs serial"
  status=1
fi

if [ "$status" = 0 ]; then
  echo "all builtin scenarios byte-identical across 1/2/4 workers," \
    "scale-steady n = 1024 across 1/4"
fi
exit $status
