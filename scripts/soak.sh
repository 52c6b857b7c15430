#!/usr/bin/env bash
# Bounded fault-matrix soak for the distributed transport: runs the
# guarded multi-rank solve (examples/distributed_solve) across
# backend x strategy x rank count x fault-mix, requires every run to
# converge or recover (never hang — each run sits under a hard watchdog),
# and bit-compares the residual/CL/CD history artifact of every cell
# against the one-rank in-process reference: the fine level is
# owner-computes, so each rank's rows come over the wire and any
# corruption the protocol let through would move the history. Every
# clean cell (no injected faults) must also leave the group through the
# Fin handshake: its `resil.transport:` line must report exit_fallback=0.
#
#   scripts/soak.sh                   # build dir ./build, watchdog 300s
#   BUILD_DIR=out scripts/soak.sh     # alternate build tree
#   SOAK_TIMEOUT=120 scripts/soak.sh  # tighter per-run watchdog (seconds)
set -uo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
SOLVE="$BUILD_DIR/examples/distributed_solve"
TIMEOUT_S="${SOAK_TIMEOUT:-300}"
CYCLES=8
WORK="$(mktemp -d "${TMPDIR:-/tmp}/columbia_soak.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

if [[ ! -x "$SOLVE" ]]; then
  echo "soak: $SOLVE not built (cmake --build $BUILD_DIR -j)" >&2
  exit 2
fi

fail=0
run() { # run <name> <history-file> <args...>
  local name="$1" hist="$2"
  shift 2
  local log="$WORK/$name.log"
  if ! timeout "$TIMEOUT_S" "$SOLVE" --cycles "$CYCLES" --history "$hist" \
      --checkpoint "$WORK/$name.ckpt" "$@" >"$log" 2>&1; then
    echo "FAIL $name (exit $?)"
    sed 's/^/    /' "$log"
    fail=1
    return 1
  fi
  local status fallbacks
  status="$(grep -o 'status: [a-z]*' "$log" | head -1)"
  fallbacks="$(grep -o 'exit_fallback=[0-9]*' "$log" | head -1 | cut -d= -f2)"
  if [[ " $* " != *" --faults "* && "$fallbacks" != 0 ]]; then
    echo "FAIL $name: clean run left through the quiet-window fallback" \
      "(exit_fallback=${fallbacks:-missing})"
    sed 's/^/    /' "$log"
    fail=1
    return 1
  fi
  echo "ok   $name (${status:-status: ok}, exit_fallback=${fallbacks:-?})"
}

echo "== soak: clean in-process references (one rank, both Fig. 7 strategies) =="
REF="$WORK/ref-1rank.txt"
run ref-1rank "$REF" --backend threads --ranks 1
run ref-t2t "$WORK/ref-t2t.txt" --backend threads --ranks 2 --strategy t2t
run ref-master "$WORK/ref-master.txt" --backend threads --ranks 2 \
  --strategy master --tpp 2
for ref in ref-t2t ref-master; do
  if ! cmp -s "$REF" "$WORK/$ref.txt"; then
    echo "FAIL $ref: history differs from the one-rank reference"
    fail=1
  fi
done

# The fault matrix: every wire backend under every transport fault kind.
# conn_reset tears down a connection (tcp) or flushes the peer-directed
# ring mid-flight (shm); the frame/timing faults run everywhere. The
# overlap cells pin split exchanges on explicitly, so msg_delay and
# conn_reset land while gathers are in flight between post() and
# finish() — delayed or reset-flushed frames must be recovered by the
# finish()-side protocol without perturbing the history.
# Cell format: name|backend|strategy|ranks|faults|extra flags.
declare -a CELLS=(
  "shm-clean|shm|t2t|2||"
  "shm-4rank|shm|t2t|4||"
  "tcp-clean|tcp|t2t|2||"
  "shm-master|shm|master|2||"
  "shm-drop|shm|t2t|2|seed=13,msg_drop=0.2,halo_corrupt=0.2|"
  "tcp-drop|tcp|t2t|2|seed=13,msg_drop=0.2,halo_corrupt=0.2|"
  "tcp-delay|tcp|t2t|2|seed=5,msg_delay=0.3@5|"
  "tcp-reset|tcp|t2t|2|seed=29,conn_reset=0.3|"
  "shm-hang|shm|t2t|2|seed=3,peer_hang=1@1|"
  "shm-overlap|shm|t2t|2|seed=7,msg_delay=0.2,conn_reset=0.05|--overlap 1"
  "tcp-overlap|tcp|t2t|2|seed=11,msg_delay=0.2@5,conn_reset=0.1|--overlap 1"
)

echo
echo "== soak: fault matrix (backend x strategy x ranks x fault) =="
for cell in "${CELLS[@]}"; do
  IFS='|' read -r name backend strategy ranks faults extra <<<"$cell"
  args=(--backend "$backend" --ranks "$ranks" --strategy "$strategy")
  [[ "$strategy" == master ]] && args+=(--tpp 2)
  [[ -n "$faults" ]] && args+=(--faults "$faults")
  # shellcheck disable=SC2206 — extra is a deliberate word-split flag list
  [[ -n "$extra" ]] && args+=($extra)
  run "$name" "$WORK/$name.txt" "${args[@]}" || continue
  if ! cmp -s "$REF" "$WORK/$name.txt"; then
    echo "FAIL $name: history differs from the one-rank reference"
    fail=1
  fi
done

# Traced cell: the distributed flight recorder end-to-end. A traced shm
# run must (a) leave one durable telemetry shard per rank next to the
# requested trace, (b) keep the solve history bit-identical to the
# one-rank reference (the recorder is numerically invisible), and (c)
# yield a non-empty clock-aligned comm report when the shards are fed to
# `columbia_report comm` — matched halo messages > 0, both ranks in the
# liveness table, and no provenance mismatch.
echo
echo "== soak: traced shm run -> merged comm report =="
REPORT="$BUILD_DIR/tools/columbia_report"
if [[ ! -x "$REPORT" ]]; then
  echo "FAIL trace-shm: $REPORT not built"
  fail=1
elif run trace-shm "$WORK/trace-shm.txt" --backend shm --ranks 2 \
    --strategy t2t --trace "$WORK/trace-shm.json"; then
  if ! cmp -s "$REF" "$WORK/trace-shm.txt"; then
    echo "FAIL trace-shm: traced history differs from the one-rank reference"
    fail=1
  fi
  shards=("$WORK"/trace-shm.json.shards.rank*.jsonl)
  if [[ ! -e "${shards[0]:-}" ]]; then
    echo "FAIL trace-shm: no telemetry shards left beside the trace"
    fail=1
  elif grep -q '"obs":false' "${shards[0]}"; then
    echo "skip trace-shm report: observability compiled out in this build"
  elif ! "$REPORT" comm --json "${shards[@]}" >"$WORK/trace-shm-comm.json" \
      2>"$WORK/trace-shm-comm.err"; then
    echo "FAIL trace-shm: columbia_report comm failed on the shards"
    sed 's/^/    /' "$WORK/trace-shm-comm.err"
    fail=1
  else
    python3 - "$WORK/trace-shm-comm.json" <<'PY' || fail=1
import json, sys
run = json.load(open(sys.argv[1]))["runs"][0]
msgs = sum(g["messages"] for g in run["comm"]["groups"])
live = len(run["liveness"])
ok = msgs > 0 and live == 2 and not run["provenance_mismatch"]
word = "ok  " if ok else "FAIL"
print(f"{word} trace-shm comm report: {msgs} matched messages, "
      f"{live} liveness rows, provenance "
      f"{'mismatch' if run['provenance_mismatch'] else 'clean'}")
sys.exit(0 if ok else 1)
PY
  fi
fi

echo
if [[ "$fail" -ne 0 ]]; then
  echo "== soak: FAILED =="
  exit 1
fi
echo "== soak: every cell converged or recovered, histories bit-identical =="
