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

echo "== harnesses: pinned stdout =="
# The remaining figure and section harnesses at their default arguments
# (ablate_walk fanned over 2 workers), each run's shape checks gating the
# exit code and its stdout cksum pinned. Together they drive the TSX-abort,
# mispredict, interrupt, page-fault and both fence paths of the core, so a
# core refactor that moves any of them fails here. stderr carries the sweep
# timing line and is not pinned. A deliberate change to a harness's output
# re-pins it in the same commit and says why. Fields: binary:cksum:bytes.
HARNESS_OUT="${TMPDIR:-/tmp}/harness.out"
for pin in fig10:2978870598:1757 fig11:2134810886:1409 \
    sec7_handles:2345237831:1010 sec7_rdrand:242707574:696 \
    table_defenses:2528227292:2254 aes_trace:3747088314:645 \
    ablate_walk:1818538951:775; do
    bin=${pin%%:*}
    want=$(echo "${pin#*:}" | tr : ' ')
    set --
    if [ "$bin" = ablate_walk ]; then
        set -- --jobs 2
    fi
    cargo run -q --release -p microscope-bench --bin "$bin" -- "$@" \
        >"$HARNESS_OUT" 2>/dev/null
    got=$(cksum <"$HARNESS_OUT")
    if [ "$got" != "$want" ]; then
        echo "error: $bin${*:+ $*} stdout cksum $got, pinned $want" >&2
        exit 1
    fi
    echo "$bin${*:+ $*} stdout cksum $got"
done
# The flag forms the harness front end parses: `--samples=N`, and both
# export flags, whose files are pinned (fig11 prints their paths on
# stdout, so its stdout is not). Fields: file:cksum:bytes.
SAMPLES_OUT="${TMPDIR:-/tmp}/fig10.samples500.out"
cargo run -q --release -p microscope-bench --bin fig10 -- --samples=500 \
    >"$SAMPLES_OUT" 2>/dev/null
TRACE_OUT="${TMPDIR:-/tmp}/fig11.trace.json"
METRICS_OUT="${TMPDIR:-/tmp}/fig11.metrics.jsonl"
cargo run -q --release -p microscope-bench --bin fig11 -- \
    --trace-out "$TRACE_OUT" --metrics-out "$METRICS_OUT" >/dev/null 2>&1
for pin in "$SAMPLES_OUT:2604885249:1243" "$TRACE_OUT:305816785:830150" \
    "$METRICS_OUT:341563503:3453"; do
    file=${pin%%:*}
    want=$(echo "${pin#*:}" | tr : ' ')
    got=$(cksum <"$file")
    if [ "$got" != "$want" ]; then
        echo "error: $file cksum $got, pinned $want" >&2
        exit 1
    fi
    echo "$(basename "$file") cksum $got"
done
rm -f "$HARNESS_OUT" "$SAMPLES_OUT" "$TRACE_OUT" "$METRICS_OUT"

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

echo "== Table 1: pinned stdout =="
# The rendered Table 1 at default arguments, at 1 worker and at 2: a
# speed-up in a catalog row must print the same table byte for byte. The
# binary's shape checks gate the exit code; stderr carries the sweep
# timing line and is not pinned. A deliberate change to a row re-pins the
# cksum in the same commit and says why.
TABLE1_OUT="${TMPDIR:-/tmp}/table1.out"
for jobs in 1 2; do
    cargo run -q --release -p microscope-bench --bin table1 -- \
        --jobs "$jobs" >"$TABLE1_OUT" 2>/dev/null
    got=$(cksum <"$TABLE1_OUT")
    if [ "$got" != "16818865 2217" ]; then
        echo "error: table1 --jobs $jobs stdout cksum $got, pinned 16818865 2217" >&2
        exit 1
    fi
    echo "table1 --jobs $jobs stdout cksum $got"
done
rm -f "$TABLE1_OUT"

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

echo "== analyzer soundness, planner and eviction-set equivalence properties =="
cargo test -q --release --test analyze_soundness
cargo test -q --release -p microscope-analyze --test plan_equivalence
# The O(ways) L3 eviction set returns exactly the lines the old pool scan
# found, in the same order.
cargo test -q --release -p microscope-cache --test eviction_set
# Any instruction vector is a Program or a typed ProgramError, and build,
# execute and analyze never panic on a Program.
cargo test -q --release --test program_fuzz

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

echo "== tracked figure: non-test lines in crates/*/src =="
# Each file counted up to its first #[cfg(test)] line that is followed by
# a mod line. Not a gate: ROADMAP asks that it not grow.
find crates/*/src -name '*.rs' -exec awk '
    FNR == 1 { cut = 0; pending = 0 }
    cut { next }
    pending && /^[[:space:]]*mod / { cut = 1; n--; next }
    { pending = /^[[:space:]]*#\[cfg\(test\)\]/; n++ }
    END { print n }' {} + | awk '{ s += $1 } END { print s }'

echo "== tracked figure: panic sites in crates/*/src =="
# unwrap(), expect(, panic! and unreachable! matches, unit tests included.
# Not a gate: ROADMAP tracks the count as sites caller input can reach
# become typed errors.
grep -rEo 'unwrap\(\)|expect\(|panic!|unreachable!' crates/*/src | wc -l

echo "CI OK"
