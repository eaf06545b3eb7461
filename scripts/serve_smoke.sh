#!/bin/sh
# Serve smoke: boot the tuning daemon on a Unix socket, run a cold
# tune, assert the warm lookup is answered from the result cache and
# from the tune's memoized lowering, pull the JSON stats, and shut down
# gracefully.  Check the daemon left only
# store.meta and the shard journals behind, then treat its store
# directory as the CLI's store: stat and compact it, and re-run
# the same tune through `ifko tune --store`, which must compute no
# probe.  Then the reverse direction: a surrogate tune by the CLI
# writes the store, and a second daemon started on it answers the same
# lookup as a cache hit with the MFLOPS the CLI printed, while a
# sampled-fidelity CLI tune answers no full-fidelity lookup.  The CLI
# and the query commands share their defaults (the workload seed
# included), so no step passes --seed.  Every step is
# timeout-bounded so a wedged daemon fails the gate instead of hanging
# it.  Run from the repository root after `dune build`.
set -eu

IFKO="${IFKO:-dune exec --no-build bin/ifko_cli.exe --}"
TMP="${TMPDIR:-/tmp}/ifko_serve_smoke.$$"
SOCK="$TMP/daemon.sock"
KERNEL=examples/kernels/ddot.hil
mkdir -p "$TMP"
trap 'kill $DAEMON_PID 2>/dev/null || true; rm -rf "$TMP"' EXIT

start_daemon() {
  timeout 300 $IFKO serve --socket "$SOCK" --store-dir "$TMP/store" --shards 4 -j 2 &
  DAEMON_PID=$!
  i=0
  while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    if [ $i -gt 300 ]; then
      echo "serve_smoke: daemon never bound $SOCK" >&2
      exit 1
    fi
    sleep 0.1
  done
}

start_daemon

timeout 240 $IFKO query tune "$KERNEL" --socket "$SOCK" -n 2000 | tee "$TMP/tune.out"
grep -q "computed" "$TMP/tune.out"

timeout 60 $IFKO query lookup "$KERNEL" --socket "$SOCK" -n 2000 | tee "$TMP/lookup.out"
grep -q "cache hit" "$TMP/lookup.out"

timeout 60 $IFKO query stat --socket "$SOCK" | tee "$TMP/stat.out"
grep -q '"server"' "$TMP/stat.out"
grep -q '"per_shard"' "$TMP/stat.out"
# the tune lowered ddot once; the lookup reused that lowering
grep -q '"lowering_misses":1[,}]' "$TMP/stat.out"
if grep -q '"lowering_hits":0[,}]' "$TMP/stat.out" || ! grep -q '"lowering_hits":' "$TMP/stat.out"; then
  echo "serve_smoke: the lookup did not reuse the tune's lowering" >&2
  exit 1
fi

timeout 60 $IFKO query shutdown --socket "$SOCK"
wait $DAEMON_PID

# The daemon leaves nothing but the store: store.meta and the shards.
STRAY=$(find "$TMP/store" -mindepth 1 ! -name store.meta ! -name 'shard-*.jsonl')
if [ -n "$STRAY" ]; then
  echo "serve_smoke: unexpected files in the store directory: $STRAY" >&2
  exit 1
fi

# One store format: the daemon's directory is an ordinary store.
timeout 60 $IFKO store stat --json "$TMP/store" | tee "$TMP/store_stat.out"
grep -q '"per_shard"' "$TMP/store_stat.out"
timeout 60 $IFKO store compact "$TMP/store"
timeout 240 $IFKO tune "$KERNEL" --store "$TMP/store" -n 2000 | tee "$TMP/cli.out"
grep -q ' 0 computed' "$TMP/cli.out"

# The reverse direction: the CLI's surrogate tune is a daemon cache hit.
timeout 240 $IFKO tune "$KERNEL" --store "$TMP/store" -n 2000 --strategy surrogate \
  | tee "$TMP/cli_surrogate.out"
# A sampled tune's record is keyed by its fidelity: it is no answer to
# the full-fidelity request of the same flags.
timeout 240 $IFKO tune "$KERNEL" --store "$TMP/store" -n 4000 --fidelity sampled \
  > "$TMP/cli_sampled.out"
start_daemon
if timeout 60 $IFKO query lookup "$KERNEL" --socket "$SOCK" -n 4000 > "$TMP/lookup_sampled.out"
then
  echo "serve_smoke: a sampled tune answered a full-fidelity lookup" >&2
  exit 1
fi
grep -qx "miss" "$TMP/lookup_sampled.out"
timeout 60 $IFKO query lookup "$KERNEL" --socket "$SOCK" -n 2000 --strategy surrogate \
  | tee "$TMP/lookup_surrogate.out"
grep -q "cache hit" "$TMP/lookup_surrogate.out"
CLI_MFLOPS=$(sed -n 's/^ifko tuned point *: *\([0-9.]*\) MFLOPS.*/\1/p' "$TMP/cli_surrogate.out")
LOOKUP_MFLOPS=$(sed -n 's/^lookup: *\([0-9.]*\) MFLOPS.*/\1/p' "$TMP/lookup_surrogate.out")
if [ -z "$CLI_MFLOPS" ] || [ "$CLI_MFLOPS" != "$LOOKUP_MFLOPS" ]; then
  echo "serve_smoke: lookup printed '$LOOKUP_MFLOPS' MFLOPS, the CLI '$CLI_MFLOPS'" >&2
  exit 1
fi
timeout 60 $IFKO query shutdown --socket "$SOCK"
wait $DAEMON_PID
echo "serve_smoke: ok"
