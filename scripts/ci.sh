#!/usr/bin/env sh
# Tier-1 gate: formatting, lints, build, tests. Run from the repo root.
set -eu

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo check (missing_docs promoted to deny) =="
# The workspace lint table sets missing_docs = "warn"; CI refuses it.
RUSTFLAGS="-D missing_docs" cargo check --workspace --all-targets

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== repo benchmark: perfbench tests =="
# Every workload at --seconds 0 with its correctness checks and one
# cross-checked op, so a core change that breaks a workload fails here.
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "== repo benchmark: pinned report digests (seed 1) =="
# A host-speed change must not move any simulated result. These are the
# seed-1 report_digest values of the four workloads; a deliberate change
# to the model (new timing, new victim, new report field) re-pins them in
# the same commit and says why.
for pin in fig10_replay:cde0bd64d931c34e aes_step:e57da434183d5c8c \
    table1_sweep:f07997de8b77bca9 sec8_plan:bed3067dbfe33e15; do
    workload=${pin%%:*}
    want=${pin#*:}
    got=$(cargo run -q --release --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 0 |
        awk '$1 == "report_digest" { print $2 }')
    if [ "$got" != "$want" ]; then
        echo "error: $workload report_digest ${got:-missing}, pinned $want" >&2
        exit 1
    fi
    echo "$workload report_digest $got"
done

echo "== repo benchmark: pinned work counters (seed 1, traced) =="
# Deterministic work per op: real steps, dispatched instructions, OS
# replays, CoW page copies and pages discarded by restores. A host-speed
# change must leave them exactly as they are; a change that moves one on
# purpose (fewer steps, a new model) re-pins it in the same commit and says
# why. The page pins, with the exact CoW test in crates/cpu/tests/machine.rs,
# keep checkpoint capture and restore O(dirty pages). The 10,993 real steps
# per fig10 op (1,345,512 simulated cycles) pin the fast-forward warm rerun:
# they are the deterministic stand-in for the 3x warm/cold wall-time floor
# of the removed scripts/bench.sh.
# Fields: steps:dispatched:replays:pages_cow:restore_pages.
for pin in fig10_replay:10993:10776:800:16:20 aes_step:9819.8:28907:111:4:0 \
    sec8_plan:2952.9:7451.8:40:20:23; do
    workload=${pin%%:*}
    want=${pin#*:}
    got=$(cargo run -q --release --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 0 --trace 1 |
        awk '$1 == "cpu.steps_per_op" { s = $2 + 0 }
             $1 == "cpu.dispatched_per_op" { d = $2 + 0 }
             $1 == "os.replays_per_op" { r = $2 + 0 }
             $1 == "checkpoint.pages_cow_per_op" { c = $2 + 0 }
             $1 == "checkpoint.restore_pages_per_op" { p = $2 + 0 }
             END { print s ":" d ":" r ":" c ":" p }')
    if [ "$got" != "$want" ]; then
        echo "error: $workload steps:dispatched:replays:pages_cow:restore_pages per op $got, pinned $want" >&2
        exit 1
    fi
    echo "$workload steps:dispatched:replays:pages_cow:restore_pages per op $got"
done

echo "== sweep smoke: ablate_walk --jobs 2 =="
# A 5-point sweep fanned over 2 workers; exercises the parallel engine and
# the shape checks end-to-end in well under a second.
cargo run -q --release -p microscope-bench --bin ablate_walk -- --jobs 2

echo "== examples: pinned stdout =="
# Every example at its default arguments, its stdout cksum pinned: the
# quickstart Figure-3 excerpt, for one, is empty if the session's probe
# stops recording. A deliberate change to an example's output re-pins it
# in the same commit and says why. Fields: example:cksum:bytes.
for pin in quickstart:216888620:807 aes_attack:4088800818:503 \
    defense_matrix:3406040050:1462 modexp_attack:1026191131:316 \
    port_contention:3989546493:381; do
    example=${pin%%:*}
    want=$(echo "${pin#*:}" | tr : ' ')
    got=$(cargo run -q --release --example "$example" | cksum)
    if [ "$got" != "$want" ]; then
        echo "error: example $example stdout cksum $got, pinned $want" >&2
        exit 1
    fi
    echo "example $example stdout cksum $got"
done

echo "== analyzer smoke: sec8_analyze --audit-defenses, pinned stdout =="
# Static plans for all 8 victims, simulator confirmation for 4, and the
# fence audit (zero open windows + no replay amplification) — the
# binary's own shape checks gate the exit code. Its stdout bytes are
# pinned as well, at 1 worker and at 2: a planner speed-up must print the
# same report byte for byte. stderr carries the timing line and is not
# pinned. A deliberate change to the report re-pins the cksum in the same
# commit and says why.
ANALYZE_OUT="${TMPDIR:-/tmp}/sec8_analyze.out"
for jobs in 1 2; do
    cargo run -q --release -p microscope-bench --bin sec8_analyze -- \
        --audit-defenses --jobs "$jobs" >"$ANALYZE_OUT"
    got=$(cksum <"$ANALYZE_OUT")
    if [ "$got" != "562405399 193994" ]; then
        echo "error: sec8_analyze --jobs $jobs stdout cksum $got, pinned 562405399 193994" >&2
        exit 1
    fi
    echo "sec8_analyze --jobs $jobs stdout cksum $got"
done
rm -f "$ANALYZE_OUT"

echo "== analyzer soundness and planner equivalence properties =="
cargo test -q --release --test analyze_soundness
cargo test -q --release -p microscope-analyze --test plan_equivalence

echo "== closed-pipe smoke: harness binaries into head -1 =="
# A reader that stops early must end the run quietly: status 0 and no
# panic on stderr.
PIPE_ERR="${TMPDIR:-/tmp}/closed_pipe.err"
PIPE_STATUS="${TMPDIR:-/tmp}/closed_pipe.status"
for cmd in "fig10 --samples=500" "table1 --trials=3" "sec8_analyze"; do
    # shellcheck disable=SC2086 # split the binary name from its flags
    set -- $cmd
    bin=$1
    shift
    {
        st=0
        cargo run -q --release -p microscope-bench --bin "$bin" -- "$@" 2>"$PIPE_ERR" || st=$?
        echo "$st" >"$PIPE_STATUS"
    } | head -1 >/dev/null
    status=$(cat "$PIPE_STATUS")
    if [ "$status" != 0 ] || grep -q panicked "$PIPE_ERR"; then
        echo "error: $cmd | head -1 exited $status:" >&2
        cat "$PIPE_ERR" >&2
        exit 1
    fi
    echo "$cmd | head -1: exit 0, no panic"
done
rm -f "$PIPE_ERR" "$PIPE_STATUS"

echo "== tracked figure: Rust lines in crates/ src/ examples/ tests/ =="
find crates src examples tests -name '*.rs' -exec cat {} + | wc -l

echo "CI OK"
