#!/bin/sh
# CI for the halpern-moses workspace. Fully offline: the workspace has
# no external dependencies, so an empty registry cache is fine.
set -eux

export CARGO_NET_OFFLINE=true

cargo fmt --all --check
# Pedantic-subset hardening on top of the default lint set: the tree is
# clean under these, so keep them at -D warnings.
cargo clippy --workspace --all-targets -- \
    -W clippy::needless_pass_by_value \
    -W clippy::redundant_clone \
    -D warnings

# Docs must build warning-clean (broken intra-doc links, missing docs).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

# Tier-1 verify (must match ROADMAP.md). The explicit target list skips
# doctests here (the doctest gate below runs them once) and skips bench
# targets (harness = false benches would otherwise EXECUTE under
# `cargo test --all-targets` and rewrite BENCH_seed.json; the smoke step
# at the bottom covers them).
cargo build --release
cargo test -q --lib --bins --tests

# The benchmark harness is a workspace of its own (perfbench/), so the
# workspace build above does not compile it; build it here so an API
# change that breaks the benchmark fails CI, not the benchmark run.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# Doctests explicitly: the README-facing examples (Engine::for_scenario
# spec strings, the spec parser) must stay runnable.
cargo test -q --doc

# CLI smoke: the scenario catalog resolves and a spec-string query
# answers end to end.
cargo run --release -q -p hm-bench --bin hm -- list > /dev/null
cargo run --release -q -p hm-bench --bin hm -- ask "agreement:n=3,f=1" "C{0,1,2} min0" --show 0

# Lint smoke: every registered scenario's example query must analyze
# clean against its declared surface (exit 1 on any diagnostic).
cargo run --release -q -p hm-bench --bin hm -- check --catalog

# Resource-governance smoke: a run budget that is too small must exit 3
# (the dedicated limit code) with a one-line diagnostic, and --partial
# must degrade to a three-valued verdict (exit 0, "unknown" in output)
# instead of failing.
HM="cargo run --release -q -p hm-bench --bin hm --"
code=0; out=$($HM ask "agreement:n=4,f=2" "C{0,1,2,3} min0" --max-runs 100 2>&1) || code=$?
test "$code" -eq 3
test "$(printf '%s\n' "$out" | wc -l)" -eq 1
code=0; out=$($HM ask "agreement:n=4,f=2" "C{0,1,2,3} min0" --max-runs 100 --partial --show 0) || code=$?
test "$code" -eq 0
printf '%s\n' "$out" | grep -q "unknown"
# Partial asks share the exact path's analyzer gate: an ill-formed query
# prints the same one-line diagnostic (exit 1) with or without --partial.
code=0; full=$($HM ask "agreement:n=3,f=1" 'K9 (nu X. !$X)' 2>&1) || code=$?
test "$code" -eq 1
test "$(printf '%s\n' "$full" | wc -l)" -eq 1
code=0; part=$($HM ask "agreement:n=3,f=1" 'K9 (nu X. !$X)' --max-runs 8 --partial 2>&1) || code=$?
test "$code" -eq 1
test "$part" = "$full"
# ...and run the simplified program: `C_G true` is valid, so even a
# truncated frame settles it everywhere.
out=$($HM ask "agreement:n=3,f=1" "C{0,1,2} true" --max-runs 8 --partial)
printf '%s\n' "$out" | grep -q "unknown 0 "

# Quotient safety is decided once, from the program that runs: an unsafe
# subterm that simplifies away (`D_G phi | true`) draws no
# not-quotient-safe warning under --minimize (the dead-subformula and
# constant-formula warnings remain, hence exit 1), and the minimized ask
# reports the same count as the plain one.
code=0; out=$($HM check --minimize --explain "generals:horizon=3" "D{0,1} dispatched | true") || code=$?
test "$code" -eq 1
test -z "$(printf '%s\n' "$out" | grep not-quotient-safe)"
min=$($HM ask --minimize "generals:horizon=3" "D{0,1} dispatched | true" --show 0 | grep "holds at")
plain=$($HM ask "generals:horizon=3" "D{0,1} dispatched | true" --show 0 | grep "holds at")
test -n "$min"
test "$min" = "$plain"
# Model sources are minimised by the same code as run systems: the
# quotient of a random model answers like the model itself.
spec="random:worlds=128,agents=2,atoms=2,blocks=64"
min=$($HM ask --minimize "$spec" "K0 q0" --show 0 | grep "holds at")
plain=$($HM ask "$spec" "K0 q0" --show 0 | grep "holds at")
test "$plain" = "holds at 14/128 worlds"
test "$min" = "$plain"

# Symmetry reduction (PR 9): the heavy differential + KAT tests are
# #[ignore]d for the debug tier-1 run above; run them here in release
# mode — reduced-vs-naive parity at n=4,f=2 (the largest naive build
# that fits), parity under minimisation at n=3,f=2, and the f=3
# safety + CK-onset pins on the reduced system.
cargo test -q --release -p hm-engine --test symmetry -- --include-ignored
cargo test -q --release -p hm-core agreement -- --ignored

# f=3 interactive smoke with a wall-clock guard: build + CK-onset query,
# end to end in release mode, must finish in < 6 s — over 13x the
# ~0.46 s it took in a green run on a 2-vCPU host (~1.1 s before each
# run's history trie resumed where the previous run's diverged, ~5 s
# before views were interned as history tries, when the guard was
# 10 s). Timed in milliseconds, so whole-second rounding cannot eat the
# headroom.
start=$(date +%s%N)
plain=$($HM ask "agreement:n=4,f=3" "C{0,1,2,3} min0" --show 0)
end=$(date +%s%N)
printf '%s\n' "$plain"
test $(((end - start) / 1000000)) -lt 6000
# ...and the same build minimised, under the same guard: with
# splitter-queue refinement it took ~0.54 s in the same green run (the
# round-based refinement took ~4.8 s). On the largest frame there
# is, the quotient must answer like the raw frame.
start=$(date +%s%N)
min=$($HM ask --minimize "agreement:n=4,f=3" "C{0,1,2,3} min0" --show 0)
end=$(date +%s%N)
test $(((end - start) / 1000000)) -lt 6000
min=$(printf '%s\n' "$min" | grep "holds at")
test -n "$min"
test "$min" = "$(printf '%s\n' "$plain" | grep "holds at")"
# ...and a peak-memory guard on the same build + ask: VmHWM under
# 400 MiB, 1.5x over the ~257 MiB it peaked at when last measured
# (~304 MiB when the flat run store landed with this guard; a heap per
# run peaked at ~493 MiB). One test in its own binary, release only.
cargo test -q --release -p hm-engine --test memory

# Fault injection: the failpoint suites force exhaustion and
# cancellation at every governed phase boundary. Netsim's suite injects
# at `netsim::enumerate`, where an injected panic unwinds to the caller.
# Worker death is exercised in the HTTP worker pool, which must answer
# 500, quarantine a spec that keeps dying, and keep serving. The
# faultnet suite injects the same hostility at the socket layer:
# slowloris trickle, truncated bodies, mid-response resets, and readers
# that stop draining.
cargo test -q -p hm-engine --features failpoints --test failpoints
cargo test -q -p hm-netsim --features failpoints --test failpoints
cargo test -q -p hm-serve --features failpoints --test failpoints
cargo test -q -p hm-serve --test faultnet

# Serve smoke: the selftest binds port 0 and drives the full request
# matrix over real TCP (healthz, cache miss/hit, malformed -> 400,
# limit exhaustion -> 503, 404, a concurrent burst, a drained
# shutdown). The overload smoke then saturates a 2-worker server with
# a full queue and proves the burst beyond capacity sheds immediately:
# 503 + `Retry-After` on every connection, counted in /stats.
$HM serve --selftest
start=$(date +%s)
$HM serve --overload-smoke
end=$(date +%s)
test $((end - start)) -lt 60
# And the CLI server proper: starts, prints its bound address, and
# shuts down cleanly on stdin EOF.
out=$(printf '' | $HM serve --addr 127.0.0.1:0 --workers 2)
printf '%s\n' "$out" | grep -q "listening on http://127.0.0.1:"
printf '%s\n' "$out" | grep -q "stopped"

# Bench smoke: every benchmark runs once (1 sample x 1 iter, no summary
# file written), so bench code cannot bit-rot without failing CI.
HM_CRITERION_SMOKE=1 cargo bench -p hm-bench
