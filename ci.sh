#!/bin/sh
# The repo's tier-1 gate, plus the panic-free lint wall.
#
#   ./ci.sh
#
# 1. release build of the whole workspace
# 2. full test suite (workspace-wide; the root package alone only runs
#    the umbrella integration tests), then the repository benchmark's own
#    tests (span store, seeded schedules, stage-replay identity, output
#    checker; no daemons), which also compile `benchmark/` against the
#    current library APIs
# 3. bench smoke: tiny-workload run of the benchmark harness; the CLI
#    re-parses the emitted JSON and validates the schema, so this also
#    gates the report format
# 4. service smoke: boot the obfuscation daemon on an ephemeral loopback
#    port, round-trip a protect-and-print job, an authenticate verdict,
#    the metrics snapshot, and a small byte-verified load run through
#    `submit --port-file` (which polls for the daemon's address itself —
#    the boot race the old external wait loop papered over), then a
#    smoke `bench --serve` against its own daemon, then drain the first
#    daemon with a `shutdown` request and wait for it.
#    The detect stage (PR 10) rides the same daemon: batch side-channel
#    detection jobs (clean, faulted, and jammed captures) and a
#    stego-sanitization job are served on BOTH wire codecs with
#    `--verify`, which byte-compares every served report against an
#    in-process `am-detect` run of the same spec — plus the smoke
#    detection ROC bench (`bench --only detect`), schema-validated on
#    write like every other report
# 5. chaos stage (PR 6, hardened under the epoll reactor in PR 8): a
#    daemon on a Unix socket — explicitly `--backend reactor` — with
#    deterministic fault injection (`--chaos-seed`), a 1 MiB cache to
#    force constant eviction, and a persistent spill tier. A
#    byte-verified load runs through the chaos; then a second load (on
#    the negotiated binary codec) is fired, the daemon is KILLED (-9)
#    mid-run and restarted on the same socket + spill dir — the retrying
#    client must ride out the outage and still report every response
#    byte-identical. The restarted daemon must show warm-start spill
#    hits (rehydrated from segment files written before the kill) and
#    zero corrupt entries served.
# 6. fleet stage (PR 9): three daemons on Unix sockets behind an
#    `obfuscade route` rendezvous router. A byte-verified shared-prefix
#    load plus a seed sweep all home on ONE backend (rendezvous hashing
#    keys on the job's stage-key prefix); the router's stats snapshot
#    names that winner, which is then KILLED (-9). A second byte-verified
#    load (binary codec) must ride the failover — identical bytes from
#    whichever surviving node the jobs re-home on — and the router must
#    record >= 1 failover. Also runs the smoke routed-fleet bench
#    (`bench --only fleet`), which grids nodes × {affinity, round-robin}
#    and validates the v8 schema on write.
# 7. bench regression gate: the committed BENCH_PR10.json must parse
#    against the obfuscade-bench/v9 schema — which adds the detection
#    sweep (mandatory `detect` section: a ROC table covering the
#    complete 15-entry fault catalog, the fused detector never below
#    either single channel per capture setup, full-mode reports sweeping
#    the jamming axis and >= 2 qualities, and headline worst-case fields
#    restating the table) on top of the v8 routed-fleet grid (nodes ×
#    {affinity, round-robin} points with per-node cache-hit accounting,
#    affinity strictly above round-robin at every N >= 2, and full-mode
#    affinity within 5 points of single-node at the top node count) and
#    the v7 serve sweep — with every kernel speedup >= 1.0x, the fea
#    row's optimized wall clock within half of PR 3's committed
#    1157.7 ms, per-kernel speedup floors (printing >= 3.5x,
#    slicing >= 5.7x — see DESIGN.md §13), a clean daemon load in the
#    mandatory `serve` section, absolute serve floors (headline
#    p99 <= 150 ms, throughput >= 4000 req/s), absolute fleet floors on
#    the affinity headline at the top node count (warm hit rate + routed
#    throughput; see DESIGN.md §15), AND absolute detection floors on
#    the ROC headline (worst-setup fused catch rate and FPR; see
#    DESIGN.md §16). Smoke reports are schema-validated on write but not
#    speedup- or latency-gated — tiny workloads are too noisy to
#    threshold.
# 8. clippy as an error wall, with `clippy::unwrap_used` additionally
#    enabled for library and binary code (test code may unwrap freely —
#    a failing assertion *is* its error report)
# 9. rustdoc as an error wall: broken or private intra-doc links in any
#    library's public docs fail the build (`--lib` because the `obfuscade`
#    binary and the `obfuscade` library would otherwise collide on the
#    doc output file name)
set -eu

cargo build --release --workspace
cargo test --workspace -q
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --manifest-path benchmark/Cargo.toml
./target/release/obfuscade bench --smoke --threads 2 --out target/bench_smoke.json

rm -f target/serve.addr
./target/release/obfuscade serve --addr 127.0.0.1:0 --workers 2 \
    --port-file target/serve.addr &
SERVE_PID=$!
./target/release/obfuscade submit --port-file target/serve.addr --kind run
./target/release/obfuscade submit --port-file target/serve.addr --kind authenticate
./target/release/obfuscade submit --port-file target/serve.addr --kind stats
./target/release/obfuscade submit --port-file target/serve.addr --load 24 --concurrency 4
# The same load again on the negotiated binary codec: byte-verified
# against the same in-process reference, so both codecs must serve
# identical result bytes.
./target/release/obfuscade submit --port-file target/serve.addr --load 24 --concurrency 4 \
    --codec binary
./target/release/obfuscade bench --smoke --serve --only serve --threads 2 \
    --out target/bench_serve_smoke.json

# --- detect stage ------------------------------------------------------
# Side-channel detection and stego sanitization through the live daemon,
# byte-verified against the in-process am-detect reference on both
# codecs: a clean suspect, a faulted suspect under acoustic jamming, and
# a sanitize job that embeds a seeded payload first.
./target/release/obfuscade submit --port-file target/serve.addr --kind detect \
    --verify >/dev/null
./target/release/obfuscade submit --port-file target/serve.addr --kind detect \
    --faults "toolpath.dup=0.5" --quality lab --jam 2.5 --trace-seed 7 \
    --codec binary --verify >/dev/null
./target/release/obfuscade submit --port-file target/serve.addr --kind sanitize \
    --payload-seed 7 --payload-bits 3 --verify >/dev/null
./target/release/obfuscade submit --port-file target/serve.addr --kind sanitize \
    --codec binary --verify >/dev/null
echo "ci: detect stage clean (served reports byte-identical on both codecs)"
# The smoke detection ROC bench: full 15-fault catalog, one capture
# setup, schema-validated on write.
./target/release/obfuscade bench --smoke --only detect --threads 2 \
    --out target/bench_detect_smoke.json

./target/release/obfuscade submit --port-file target/serve.addr --kind shutdown
wait "$SERVE_PID"

# --- chaos stage -------------------------------------------------------
CHAOS_SOCK=target/chaos.sock
CHAOS_SPILL=target/chaos-spill
rm -rf "$CHAOS_SPILL" "$CHAOS_SOCK"
./target/release/obfuscade serve --uds "$CHAOS_SOCK" --addr 127.0.0.1:0 --backend reactor \
    --workers 2 --cache-mb 1 --chaos-seed 7 --spill-dir "$CHAOS_SPILL" &
CHAOS_PID=$!
# Byte-verified load straight through the injected faults (connection
# drops, short/stalled reads, worker panics, spill write failures); the
# retrying client must absorb all of them.
./target/release/obfuscade submit --uds "$CHAOS_SOCK" --load 24 --concurrency 4 --retries 16
# Sweep distinct seeds to overflow the 1 MiB budget (~200 KiB of
# artifacts per seed): the early seeds — including the default-seed
# entries the load above warmed — are evicted to the spill tier.
for s in 1 2 3 4 5 6 7 8 9 10; do
    ./target/release/obfuscade submit --uds "$CHAOS_SOCK" --kind run --seed "$s" \
        --retries 16 >/dev/null
done

# Hard-kill the daemon, then fire a verified load at the DEAD socket and
# restart on the same socket + spill dir while the load's clients are
# retrying: every client rides through the outage, and the load must
# still complete clean and byte-identical.
kill -9 "$CHAOS_PID" 2>/dev/null || true
wait "$CHAOS_PID" 2>/dev/null || true
./target/release/obfuscade submit --uds "$CHAOS_SOCK" --load 64 --concurrency 4 --retries 16 \
    --codec binary &
LOAD_PID=$!
sleep 0.2
./target/release/obfuscade serve --uds "$CHAOS_SOCK" --addr 127.0.0.1:0 --backend reactor \
    --workers 2 --cache-mb 1 --chaos-seed 7 --spill-dir "$CHAOS_SPILL" &
CHAOS_PID=$!
wait "$LOAD_PID" || { echo "ci: chaos load did not survive the kill+restart" >&2; exit 1; }

# The restarted daemon recovered the spill segments the killed one
# wrote: re-sweeping the seeds must land warm-start spill hits (entries
# rehydrated from disk instead of recomputed), and recovery must never
# have served a corrupt entry.
for s in 1 2 3 4 5 6 7 8 9 10; do
    ./target/release/obfuscade submit --uds "$CHAOS_SOCK" --kind run --seed "$s" \
        --retries 16 >/dev/null
done
CHAOS_STATS=$(./target/release/obfuscade submit --uds "$CHAOS_SOCK" --kind stats --retries 16)
SPILL_HITS=$(printf '%s' "$CHAOS_STATS" | sed -n 's/.*"spill_hits":\([0-9]*\).*/\1/p')
CORRUPT=$(printf '%s' "$CHAOS_STATS" | sed -n 's/.*"spill_corrupt_dropped":\([0-9]*\).*/\1/p')
[ -n "$SPILL_HITS" ] && [ "$SPILL_HITS" -ge 1 ] \
    || { echo "ci: restarted daemon saw no warm-start spill hits (got '$SPILL_HITS')" >&2; exit 1; }
[ -n "$CORRUPT" ] \
    || { echo "ci: stats snapshot lost the spill_corrupt_dropped counter" >&2; exit 1; }
echo "ci: chaos stage clean ($SPILL_HITS spill hits after restart, $CORRUPT corrupt entries dropped)"
# `shutdown` is never auto-retried (resending it is not idempotent), but
# a connection the chaos layer dropped AT ACCEPT never delivered the
# request — so retrying at the script level is safe: stop as soon as one
# attempt lands or the daemon is observed gone.
SHUT=fail
for _ in $(seq 1 10); do
    if ./target/release/obfuscade submit --uds "$CHAOS_SOCK" --kind shutdown; then
        SHUT=ok
        break
    fi
    kill -0 "$CHAOS_PID" 2>/dev/null || { SHUT=ok; break; }
    sleep 0.2
done
[ "$SHUT" = ok ] || { echo "ci: chaos daemon refused shutdown" >&2; exit 1; }
wait "$CHAOS_PID"

# --- fleet stage -------------------------------------------------------
FLEET_B1=target/fleet-b1.sock
FLEET_B2=target/fleet-b2.sock
FLEET_B3=target/fleet-b3.sock
rm -f "$FLEET_B1" "$FLEET_B2" "$FLEET_B3" target/fleet.addr
./target/release/obfuscade serve --uds "$FLEET_B1" --addr 127.0.0.1:0 --workers 2 --node fleet-a &
B1_PID=$!
./target/release/obfuscade serve --uds "$FLEET_B2" --addr 127.0.0.1:0 --workers 2 --node fleet-b &
B2_PID=$!
./target/release/obfuscade serve --uds "$FLEET_B3" --addr 127.0.0.1:0 --workers 2 --node fleet-c &
B3_PID=$!
# Barrier: a retried stats round-trip per backend, so the router never
# races a daemon that has not bound its socket yet (a connect-refused
# first dispatch would fail over and muddy the placement check below).
for S in "$FLEET_B1" "$FLEET_B2" "$FLEET_B3"; do
    ./target/release/obfuscade submit --uds "$S" --kind stats --retries 16 >/dev/null
done
./target/release/obfuscade route --to "unix:$FLEET_B1,unix:$FLEET_B2,unix:$FLEET_B3" \
    --addr 127.0.0.1:0 --workers 4 --port-file target/fleet.addr &
ROUTE_PID=$!

# Byte-verified shared-prefix load plus a seed sweep through the router:
# every request carries the same stage-key prefix, so rendezvous hashing
# homes all of them on exactly one backend — its warm cache serves the
# whole stream.
./target/release/obfuscade submit --port-file target/fleet.addr --load 24 --concurrency 4 \
    --retries 16
for s in 1 2 3 4 5 6; do
    ./target/release/obfuscade submit --port-file target/fleet.addr --kind run --seed "$s" \
        --retries 16 >/dev/null
done
FLEET_STATS=$(./target/release/obfuscade submit --port-file target/fleet.addr --kind stats \
    --retries 16)
WINNER=$(printf '%s' "$FLEET_STATS" \
    | grep -o '"endpoint":"[^"]*","routed":[1-9][0-9]*' | head -n 1 \
    | sed 's/"endpoint":"\([^"]*\)".*/\1/')
case "$WINNER" in
    "unix:$FLEET_B1") WINNER_PID=$B1_PID ;;
    "unix:$FLEET_B2") WINNER_PID=$B2_PID ;;
    "unix:$FLEET_B3") WINNER_PID=$B3_PID ;;
    *) echo "ci: could not identify the routed winner (got '$WINNER')" >&2; exit 1 ;;
esac

# Hard-kill the winner — the home of every prefix in flight — and drive
# the same byte-verified load again on the binary codec. The router must
# re-home the jobs on a surviving node (failover is a placement change,
# never a byte change) and record it.
kill -9 "$WINNER_PID" 2>/dev/null || true
wait "$WINNER_PID" 2>/dev/null || true
./target/release/obfuscade submit --port-file target/fleet.addr --load 64 --concurrency 4 \
    --codec binary --retries 16 \
    || { echo "ci: routed load did not survive losing its home backend" >&2; exit 1; }
FLEET_STATS=$(./target/release/obfuscade submit --port-file target/fleet.addr --kind stats \
    --retries 16)
FAILOVERS=$(printf '%s' "$FLEET_STATS" | sed -n 's/.*"failovers":\([0-9]*\).*/\1/p' | head -n 1)
[ -n "$FAILOVERS" ] && [ "$FAILOVERS" -ge 1 ] \
    || { echo "ci: router recorded no failover after losing a backend (got '$FAILOVERS')" >&2; exit 1; }
echo "ci: fleet stage clean (winner $WINNER killed, $FAILOVERS failovers, bytes identical)"

# The routed-fleet bench (smoke grid): nodes × {affinity, round-robin},
# schema-validated on write like every other report.
./target/release/obfuscade bench --smoke --serve --only fleet --threads 2 \
    --out target/bench_fleet_smoke.json

./target/release/obfuscade submit --port-file target/fleet.addr --kind shutdown
wait "$ROUTE_PID"
for S in "$FLEET_B1" "$FLEET_B2" "$FLEET_B3"; do
    [ "unix:$S" = "$WINNER" ] \
        || ./target/release/obfuscade submit --uds "$S" --kind shutdown >/dev/null
done
wait "$B1_PID" 2>/dev/null || true
wait "$B2_PID" 2>/dev/null || true
wait "$B3_PID" 2>/dev/null || true

./target/release/obfuscade bench --check BENCH_PR10.json --fea-budget-ms 578.9 --require-serve \
    --min-speedup printing=3.5,slicing=5.7 --serve-p99-ms 150 --serve-min-rps 4000 \
    --fleet-min-hit-rate 80 --fleet-min-rps 250 \
    --detect-min-catch 0.9 --detect-max-fpr 0.4
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --workspace --lib --bins -- -D warnings -W clippy::unwrap_used
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline

echo "ci: all green"
