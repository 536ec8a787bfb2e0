#!/usr/bin/env bash
# Kill-resume smoke test: prove the checkpoint subsystem's headline
# property end to end, against real SIGKILL, for every scheduler the CLI
# exposes without a trained model.
#
# For each scheduler: run nodesim to completion for the reference digest,
# then run it again with checkpointing, SIGKILL it at a random instant,
# resume from the surviving checkpoint and require the final metrics
# digest to match the reference bit for bit.
#
# Usage: scripts/kill_resume_smoke.sh [workdir]
set -euo pipefail

work="${1:-$(mktemp -d)}"
repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

go build -o "$work/nodesim" ./cmd/nodesim
go build -o "$work/solarsched" ./cmd/solarsched

"$work/nodesim" workload -benchmark wam -o "$work/wam.json"
"$work/solarsched" trace gen -days 30 -seed 5 -out "$work/trace.csv"

digest() { grep '^metrics digest:' | awk '{print $3}'; }

fail=0
for sched in inter intra asap dvfs optimal; do
  args=(run -workload "$work/wam.json" -scheduler "$sched" -bank 25
        -trace "$work/trace.csv" -faults 0.5 -fault-seed 99)
  want=$("$work/nodesim" "${args[@]}" | digest)

  ckpt="$work/$sched.ckpt"
  killed=0
  # The kill delay adapts: schedulers with an expensive startup (the
  # clairvoyant plans before its first period) need a later kill, fast
  # ones an earlier kill. Start at 300 ms, with a random jitter so the
  # kill instant varies between runs.
  delay_ms=300
  for attempt in 1 2 3 4 5 6 7 8; do
    rm -f "$ckpt" "$ckpt.prev" "$ckpt.journal"
    # -ckpt-every 1 makes every period durable, slowing the run enough
    # to open a kill window; the kill lands at a random instant.
    "$work/nodesim" "${args[@]}" -checkpoint "$ckpt" -ckpt-every 1 >/dev/null 2>&1 &
    pid=$!
    sleep "$(awk -v ms="$delay_ms" -v j="$((RANDOM % 100))" 'BEGIN{printf "%.3f", ms/1000.0 * (1 + j/200.0)}')"
    if kill -9 "$pid" 2>/dev/null; then
      wait "$pid" 2>/dev/null || true
      if [ -e "$ckpt" ] || [ -e "$ckpt.prev" ]; then
        killed=1
        break
      fi
      echo "$sched: killed before the first checkpoint (attempt $attempt); retrying later"
      delay_ms=$((delay_ms * 2))
    else
      wait "$pid" 2>/dev/null || true
      echo "$sched: run finished before the kill (attempt $attempt); retrying earlier"
      delay_ms=$((delay_ms / 2))
      [ "$delay_ms" -ge 50 ] || delay_ms=50
    fi
  done
  if [ "$killed" -ne 1 ]; then
    echo "FAIL $sched: could not SIGKILL the run mid-flight in 8 attempts"
    fail=1
    continue
  fi

  got=$("$work/nodesim" "${args[@]}" -checkpoint "$ckpt" -resume | digest)
  if [ "$got" = "$want" ]; then
    echo "OK   $sched: resume digest $got matches uninterrupted run"
  else
    echo "FAIL $sched: resume digest $got != uninterrupted $want"
    fail=1
  fi
done

exit "$fail"
