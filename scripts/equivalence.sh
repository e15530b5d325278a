#!/usr/bin/env bash
# Path equivalence: every artifact set below must render byte-identical
# tables on every execution path. Each leg's stdout is diffed against a
# serial, store-less reference run (`--no-store --jobs 1`):
#
#   jobs     --no-store --jobs 2
#   batch    --no-store --jobs 2 --batch; its stderr summary must also
#            show at most (2 + 1) x threads-per-run streams held at once
#            (runs start in batch order, so only the pairings in flight
#            hold streams)
#   cold     --store DIR --jobs 2 (fresh store)
#   warm     the same command again, served from the store; its stderr
#            summary must also show nothing simulated and 0 records
#            written (a store that silently misses re-simulates and still
#            renders identical tables)
#   client1  } two concurrent `client` runs against a csmt-serve daemon
#   client2  } on a fresh store, client2 with --batch: the two specs
#              differ only in batching, so they share one memo group and
#              each run is computed once, by whichever job claims it
#   memo     one more client run against the same daemon: every run is
#            already in its in-memory memo, so the tables (the `-ci`
#            companions of sampled sets included) render from shared
#            memoized results without simulating or reading the store
#   restart  kill -9 the daemon, remove its socket, restart it on the same
#            store, then one more client run
#
#   scripts/equivalence.sh
#
# Builds the release binaries first. Exits 1 on the first difference and
# prints the diff.
set -euo pipefail

cd "$(dirname "$0")/.."
cargo build --release --offline --quiet -p csmt-experiments -p csmt-serve
BIN=target/release/csmt-experiments
SERVE=target/release/csmt-serve

SETS=(
    "detail:DH/ilp.2.1 detail:DH/mix.2.1 --target 400 --warmup 100"
    "fig2 --target 400 --warmup 100"
    "figN --target 400 --warmup 100"
    "figPair --target 400 --warmup 100"
    "fig2 --target 2000 --warmup 200 --sample intervals=4,warmup=150,detail=400"
    # Restores at offsets 0/10k/20k/30k: past the first 4,096-uop chunk.
    "detail:DH/ilp.2.1 detail:mixes/mix.2.3 --target 40000 --warmup 100 --sample intervals=4,warmup=150,detail=400"
)

work="$(mktemp -d)"
sock="$work/serve.sock"
daemon=""
cleanup() {
    if [ -n "$daemon" ]; then
        kill -9 "$daemon" 2>/dev/null || true
        wait "$daemon" 2>/dev/null || true
    fi
    rm -rf "$work"
}
trap cleanup EXIT

# Start a daemon on store $1 and wait for its socket.
start_daemon() {
    rm -f "$sock"
    "$SERVE" --socket "$sock" --store "$1" --max-running 2 --jobs 2 --quiet &
    daemon=$!
    for _ in $(seq 200); do
        [ -S "$sock" ] && return 0
        sleep 0.1
    done
    echo "equivalence: csmt-serve did not open $sock" >&2
    exit 1
}

stop_daemon() {
    kill -9 "$daemon"
    wait "$daemon" 2>/dev/null || true
    daemon=""
}

# Fail unless the batch leg's `streams:` summary line reports at most
# $1 streams held at once.
check_streams() {
    local bound=$1 held
    held=$(sed -n 's/^streams: [0-9]* decoded, at most \([0-9]*\) held at once$/\1/p' "$work/batch.err")
    if [ -z "$held" ] || [ "$held" -gt "$bound" ]; then
        cat "$work/batch.err" >&2
        echo "equivalence: FAIL '$set' leg batch held ${held:-?} streams at once (bound $bound)" >&2
        exit 1
    fi
}

# Fail unless the warm leg's summary shows a store that was read: no
# simulation, no record written.
check_warm() {
    if ! grep -q '^jobs:  0 simulated, 0 failed$' "$work/warm.err" ||
        ! grep -q ' misses (100.0% warm), 0 records written, ' "$work/warm.err"; then
        cat "$work/warm.err" >&2
        echo "equivalence: FAIL '$set' leg warm did not serve every run from the store" >&2
        exit 1
    fi
}

# Run leg $1 (the command after it) into $work/$1.out and diff that
# against the reference run of the current set.
leg() {
    local name=$1
    shift
    if ! "$@" >"$work/$name.out" 2>"$work/$name.err"; then
        cat "$work/$name.err" >&2
        echo "equivalence: FAIL '$set' leg $name exited non-zero" >&2
        exit 1
    fi
    if [ "$name" != ref ] && ! diff -u "$work/ref.out" "$work/$name.out" >&2; then
        echo "equivalence: FAIL '$set' leg $name differs from --no-store --jobs 1" >&2
        exit 1
    fi
}

for set in "${SETS[@]}"; do
    read -r -a args <<<"$set --quiet"
    rm -rf "$work/cli-store" "$work/serve-store"
    leg ref "$BIN" "${args[@]}" --no-store --jobs 1
    leg jobs "$BIN" "${args[@]}" --no-store --jobs 2
    leg batch "$BIN" "${args[@]}" --no-store --jobs 2 --batch
    threads=2
    [[ $set == figN* ]] && threads=4
    check_streams $((3 * threads))
    leg cold "$BIN" "${args[@]}" --store "$work/cli-store" --jobs 2
    leg warm "$BIN" "${args[@]}" --store "$work/cli-store" --jobs 2
    check_warm

    start_daemon "$work/serve-store"
    leg client1 "$BIN" client --socket "$sock" "${args[@]}" &
    c1=$!
    leg client2 "$BIN" client --socket "$sock" "${args[@]}" --batch &
    c2=$!
    wait "$c1"
    wait "$c2"
    leg memo "$BIN" client --socket "$sock" "${args[@]}"
    stop_daemon
    start_daemon "$work/serve-store"
    leg restart "$BIN" client --socket "$sock" "${args[@]}"
    stop_daemon
    echo "equivalence: ok  $set"
done
