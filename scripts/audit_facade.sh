#!/usr/bin/env bash
# Audit the root facade (solarsched.go): it must compile, be gofmt-clean,
# and re-export the load-bearing API surface — the context-first Run
# pipeline, the sentinel errors, and the fleet subsystem. Exits non-zero
# on any missing symbol so CI catches facade rot when internal packages
# move.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

fmt=$(gofmt -l solarsched.go)
if [ -n "$fmt" ]; then
  echo "audit_facade: gofmt needed on: $fmt" >&2
  fail=1
fi

go build ./... >/dev/null

doc=$(go doc -all .)

# One entry per facade symbol the public API contract promises.
required=(
  # engine + context-first run surface
  Engine EngineConfig Result Scheduler NewEngine
  RunOption RunState EventRecorder
  WithRecorder WithResume WithCheckpointSink WithCheckpointGate WithCheckpointEvery
  # sentinel errors
  ErrCanceled ErrConfigMismatch ErrCorruptCheckpoint
  # fleet subsystem
  FleetSpec FleetJob FleetOptions FleetReport FleetRunResult FleetSummary
  FleetFileSpec FleetRunSpec ArtifactCache NewArtifactCache
  RunFleet LoadFleetSpecFile ReadFleetSpecs
  # core modeling surface
  Trace TimeBase TaskGraph CapBank PlanConfig Network
  NewProposed NewClairvoyant Train SizeBank
  MetricsRegistry FaultConfig
  # online decision surface (single and batched)
  Decide DecideBatch DecideRequest OnlineDecision
)

for sym in "${required[@]}"; do
  if ! grep -qw "$sym" <<<"$doc"; then
    echo "audit_facade: facade is missing required symbol: $sym" >&2
    fail=1
  fi
done

# Deprecated-API check: the RunRecorded/RunWithOptions wrappers were
# removed in favor of the context-first Run(ctx, s, ...RunOption); any
# call site that sneaks back in fails the audit.
deprecated=$(grep -rn '\.RunRecorded(\|\.RunWithOptions(' --include='*.go' . || true)
if [ -n "$deprecated" ]; then
  echo "audit_facade: deprecated Run wrappers in use (migrate to Run(ctx, s, ...RunOption)):" >&2
  echo "$deprecated" >&2
  fail=1
fi

# The seven-positional-argument DecideOnce was replaced by
# Decide(pc, net, DecideRequest); any resurrection fails the audit.
legacy_decide=$(grep -rn 'DecideOnce(' --include='*.go' . || true)
if [ -n "$legacy_decide" ]; then
  echo "audit_facade: removed core.DecideOnce in use (migrate to Decide(pc, net, DecideRequest)):" >&2
  echo "$legacy_decide" >&2
  fail=1
fi

# Removed duplicate paths and aliases: the slot kernel replaced
# ExecSlotDVFS (and nvp's RunScaled), sched.LazyPolicy duplicated
# InterLSA, sim.ErrInterrupted was an alias of ErrCanceled, and the ckpt
# wrappers passed straight through to atomicio. The planner's per-call
# set-up went too: sim.RunPeriodOnCap became the reusable PeriodRunner,
# core.FinePolicy became FineStages.Pick, and sched's nvpBusy helper is
# gone. Any of them coming back fails the audit; word matching lets the
# ref* test references through.
removed=$(grep -rnwE --include='*.go' \
  'ExecSlotDVFS|RunScaled|LazyPolicy|ErrInterrupted|ckpt\.WriteFileAtomic|ckpt\.NewAtomicWriter|ckpt\.AtomicWriter|RunPeriodOnCap|FinePolicy|nvpBusy' . || true)
if [ -n "$removed" ]; then
  echo "audit_facade: removed symbols in use (use the slot kernel, nvp.Set.Run, ErrCanceled, atomicio, sim.PeriodRunner, core.FineStages):" >&2
  echo "$removed" >&2
  fail=1
fi

# One sealed envelope: atomicio.Seal/Unseal and atomicio.ErrCorrupt
# replaced store's envelope codec (and its Seal/Unseal pass-throughs),
# ckpt's hand-rolled header codec and both packages' corruption
# sentinels. Any of them coming back fails the audit.
envelope=$(grep -rnwE --include='*.go' \
  'encodeEnvelope|decodeEnvelope|store\.Seal|store\.Unseal|ErrCorruptArtifact|ckpt\.ErrCorruptCheckpoint' . || true)
if [ -n "$envelope" ]; then
  echo "audit_facade: removed envelope codecs in use (use atomicio.Seal/Unseal, atomicio.ErrCorrupt):" >&2
  echo "$envelope" >&2
  fail=1
fi

# The capsim and solartrace binaries became `solarsched cap` and
# `solarsched trace`; neither may come back or be named again.
for tool in capsim solartrace; do
  if [ -e "cmd/$tool" ]; then
    echo "audit_facade: cmd/$tool is back (use solarsched cap / solarsched trace)" >&2
    fail=1
  fi
  named=$(grep -rnw "$tool" scripts README.md DESIGN.md | grep -v '^scripts/audit_facade.sh:' || true)
  if [ -n "$named" ]; then
    echo "audit_facade: removed $tool binary still named:" >&2
    echo "$named" >&2
    fail=1
  fi
done

# The node-simulation binary became `solarsched node`, with one
# observability session (obs.Flags.Open) in place of its obsFlags/finish
# and the experiment mode's stopAndEmit, and one benchmark lookup
# (task.ByName) in place of fleet's graphByName. The binary may not come
# back or be named in any tracked non-Markdown file or in the Markdown
# docs readers follow (history records such as CHANGES.md keep the old
# name), and the removed helpers may not reappear. The name is split so
# this script does not match itself.
gone=node''sim
if [ -e "cmd/$gone" ]; then
  echo "audit_facade: cmd/$gone is back (use solarsched node)" >&2
  fail=1
fi
named=$(
  git grep -nw "$gone" -- ':!*.md' || true
  git grep -nw "$gone" -- README.md DESIGN.md EXPERIMENTS.md ROADMAP.md .claude || true
)
if [ -n "$named" ]; then
  echo "audit_facade: removed $gone binary still named:" >&2
  echo "$named" >&2
  fail=1
fi
plumbing=$(grep -rnwE --include='*.go' 'obsFlags|stopAndEmit|graphByName' . || true)
if [ -n "$plumbing" ]; then
  echo "audit_facade: removed CLI plumbing in use (use obs.Flags.Open, task.ByName):" >&2
  echo "$plumbing" >&2
  fail=1
fi

# Orphan check: every internal package the facade imports must back at
# least one re-export; a dangling import means a pruned symbol left its
# import behind (goimports would drop it, but be explicit).
while read -r pkg; do
  short=${pkg##*/}
  if ! grep -q "${short}\." solarsched.go; then
    echo "audit_facade: orphan import in facade: $pkg" >&2
    fail=1
  fi
done < <(grep -o '"solarsched/internal/[a-z]*"' solarsched.go | tr -d '"')

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "audit_facade: ok (${#required[@]} required symbols present)"
