#!/usr/bin/env bash
# Kill-recovery: SIGKILL one ssps_noded mid-scenario and let the
# coordinator respawn it. The respawned process replays the prefix
# locally, audits its on-disk snapshots against the replayed state, then
# rejoins the barrier; every replica applies the same lockstep
# crash+recover (stale-snapshot path) for the killed shard's nodes. The
# run must finish with ok = true and oracle_ok = true (exit 0) — the
# deployment stays oracle-green through a real process death, though the
# report legitimately differs from an undisturbed run's.
#
# When the barrier for the kill round opens, the coordinator stops
# forwarding the doomed shard's relays; it sends the SIGKILL when that
# shard's ack for the round arrives. Each connection delivers in order,
# so by then every relay the doomed process wrote for the round has
# reached the coordinator and been dropped. The respawned daemon writes
# the round's outbox again after its disk audit, and the coordinator
# forwards that one.
#
# The kill deployment runs twice, each with its own snapshot directory,
# and the two reports must be byte-identical once the two timing keys
# (deploy_wall_ms, deploy_rounds_per_sec) are stripped. A relay of the
# kill round forwarded twice (from the killed process and from its
# replacement) or lost moves deploy_relays or deploy_relay_bytes: between
# the two runs if it depends on timing, and away from the counts pinned
# below (those of an undisturbed relay path) if it does not. The report
# itself cannot show it: a daemon that applies a relay twice swaps in the
# same bytes again, and one that misses a relay delivers its own
# replica's copy of the message.
#
#   usage: deploy_kill_restart.sh <ssps_deploy> <ssps_noded>
set -u

deploy=${1:?usage: deploy_kill_restart.sh <ssps_deploy> <ssps_noded>}
noded=${2:?usage: deploy_kill_restart.sh <ssps_deploy> <ssps_noded>}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

for run in a b; do
  out="$workdir/kill-live-$run.json"
  if ! "$deploy" --noded "$noded" --scenario steady --seed 11 --nodes 48 \
      --procs 3 --oracle --snapshot-every 2 --snapshot-dir "$workdir/snaps-$run" \
      --kill-shard 1 --kill-round 6 --quiet --out "$out"; then
    echo "FAILED: kill-restart deployment $run exited nonzero"
    exit 1
  fi
  # Guard against vacuous passes: the respawn must actually have happened,
  # and the killed shard must have left snapshot files behind.
  if ! grep -q '"deploy_respawns": 1' "$out"; then
    echo "FAILED: no respawn recorded in report $run"
    exit 1
  fi
  if ! ls "$workdir/snaps-$run"/node-*.snap >/dev/null 2>&1; then
    echo "FAILED: no snapshot files were persisted in run $run"
    exit 1
  fi
  grep -v -e '"deploy_wall_ms"' -e '"deploy_rounds_per_sec"' "$out" \
    >"$workdir/kill-stripped-$run.json"
done
if ! cmp "$workdir/kill-stripped-a.json" "$workdir/kill-stripped-b.json"; then
  echo "FAILED: two kill-restart runs differ beyond their timing keys"
  diff "$workdir/kill-stripped-a.json" "$workdir/kill-stripped-b.json" | head -20
  exit 1
fi
if ! grep -q '"deploy_relays": 12124,' "$workdir/kill-stripped-a.json" ||
    ! grep -q '"deploy_relay_bytes": 501540,' "$workdir/kill-stripped-a.json"; then
  echo "FAILED: relay counts moved (pinned 12124 relays, 501540 bytes)"
  grep '"deploy_relay' "$workdir/kill-stripped-a.json"
  exit 1
fi
echo "ok: killed+respawned daemon converged oracle-green, twice byte-identically"
