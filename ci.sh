#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — run before pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt check =="
cargo fmt --all --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== d3t-lint (determinism & safety rule pack) =="
# The workspace self-lint must be clean: every suppression is either an
# inline `// d3t-lint: allow(CODE) -- reason` pragma or a reasoned entry
# in crates/lint/allowlist.txt (stale entries themselves fail as L002).
# The grep pins the machine-readable trailer at zero violations; the
# rest of the --json stdout is the BENCH_lint.json artifact (per-rule
# counts, files scanned, wall time). The pack is exactly D001-D004,
# U001, P001, F001, L001 and L002: a rule dropped by accident fails the
# count.
lint_out=$(cargo run --release -q -p d3t-lint -- --workspace --json)
echo "$lint_out" | grep '^LINT files=.* rules=9 violations=0'
echo "$lint_out" | grep -v '^LINT' > BENCH_lint.json
test "$(grep -c '"code": "' BENCH_lint.json)" -eq 9

echo "== build (release) =="
cargo build --release

echo "== test =="
cargo test -q

echo "== benchmark self-tests =="
# d3tbench is its own package outside the workspace, so the root `cargo
# test` never runs its tests: the determinism self-test, tiny-scale
# oracle and cold-twin equality, and set-up replay == Prepared::build.
cargo test --release --offline --manifest-path d3tbench/Cargo.toml

echo "== repro smoke =="
cargo run --release -p d3t-experiments --bin repro -- fig4 --tiny > /dev/null
# One timed base-config run per scheduler backend, emitting both tracked
# formats from the same runs: the greppable SMOKE lines (events
# processed, wall µs, events/sec — the cross-PR throughput trail) and
# the structured BENCH_queue.json artifact (adds hot-tier queue-ops/s
# and slot bytes). The greps fail CI if either backend stops reporting.
queue_out=$(cargo run --release -q -p d3t-experiments --bin repro -- queue-json)
echo "$queue_out" | grep '^SMOKE'
test "$(echo "$queue_out" | grep -c '^SMOKE queue=.* events=.* wall_us=.* events_per_sec=')" -eq 2
echo "$queue_out" | grep -v '^SMOKE' > BENCH_queue.json
test "$(grep -c '"queue": "\(calendar\|heap\)"' BENCH_queue.json)" -eq 2
# One failure-burst dynamics run; the DYNAMICS line is machine-readable
# (static vs churn loss, arrivals dropped) and the grep fails CI if the
# experiment stops emitting it.
cargo run --release -q -p d3t-experiments --bin repro -- dynamics --tiny | grep -o 'DYNAMICS .*'
# The fig8/fig11 filtering smoke: one timed cell per dissemination
# protocol, each emitting a machine-readable FILTER line so the
# deviation-check path (the batched kernel) is tracked across PRs; CI
# fails unless all four protocols report.
filter_out=$(cargo run --release -q -p d3t-experiments --bin repro -- filter --tiny | grep -o 'FILTER .*')
echo "$filter_out"
test "$(echo "$filter_out" | grep -c 'FILTER protocol=.* checks=.* checks_per_sec=')" -eq 4
# The robustness sweep: crash-burst size × loss rate × repair policy
# over identical prepared inputs. One RESILIENCE line per faulted cell
# is the greppable trail (post-burst survivor fidelity vs baseline,
# MTTR, loss/retransmit/re-parent counters); the JSON document lands in
# BENCH_resilience.json. The greps fail CI if any cell stops reporting,
# and the self-healing-beats-passive separation itself is asserted by
# the experiment's unit tests above.
res_out=$(cargo run --release -q -p d3t-experiments --bin repro -- resilience --tiny)
echo "$res_out" | grep '^RESILIENCE'
test "$(echo "$res_out" | grep -c '^RESILIENCE burst=.* loss_pct=.* mttr_ms=.* retransmits=.* reparented=')" -eq 8
echo "$res_out" | grep -v '^RESILIENCE' > BENCH_resilience.json
test "$(grep -c '"policy": "\(none\|reparent\)"' BENCH_resilience.json)" -eq 8
# Per-phase drain telemetry: one timed batched run whose wall clock is
# attributed to the session's queue/process/fidelity/transmit phases
# from the always-on cycle counters (the binary asserts the four shares
# sum to the run's wall time within 5%). PHASE lines are the greppable
# trail; the JSON document lands in BENCH_phases.json.
phase_out=$(cargo run --release -q -p d3t-experiments --bin repro -- phases)
echo "$phase_out" | grep '^PHASE'
test "$(echo "$phase_out" | grep -c '^PHASE name=.* events=.* wall_us=')" -eq 4
echo "$phase_out" | grep -v '^PHASE' > BENCH_phases.json
test "$(grep -c '"phase": "\(queue\|process\|fidelity\|transmit\)"' BENCH_phases.json)" -eq 4

# The snapshot/branch what-if smoke: one shared prefix to the half-run
# fork, one snapshot, 8 divergent scenario branches each driven cold
# and warm. The hard gate is correctness: every WHATIF line must say
# equal=true (the warm branch's report hash matches its cold twin — the
# resume path is bit-identical on any machine). The amortization gates
# (speedup ≥ 1.5 over 8 branches, capture ≤ 5% of one run's wall) are
# wall-time claims, so they honor D3T_SKIP_PERF_GATE; the speedup
# metric sums per-cell walls and is scheduler-independent, so no core
# count precondition. The JSON document lands in BENCH_snapshot.json.
whatif_out=$(cargo run --release -q -p d3t-experiments --bin repro -- \
    whatif --tiny --ticks 2000 --branches 8)
echo "$whatif_out" | grep -E '^WHATIF|^SNAPSHOT'
test "$(echo "$whatif_out" | grep -c '^WHATIF branch=.* loss_pct=.* cold_wall_us=.* warm_wall_us=.* report_hash=0x.* equal=')" -eq 8
test "$(echo "$whatif_out" | grep -c '^WHATIF .* equal=true$')" -eq 8
test "$(echo "$whatif_out" | grep -c '^SNAPSHOT bytes=[1-9][0-9]* capture_us=.* restore_us=.* pending_events=.* digest=0x')" -eq 1
if [ -z "${D3T_SKIP_PERF_GATE:-}" ]; then
    speedup=$(echo "$whatif_out" | grep -o '"speedup": [0-9.]*' | grep -o '[0-9.]*')
    awk -v s="$speedup" 'BEGIN { exit !(s >= 1.5) }' \
        || { echo "whatif speedup $speedup below the 1.5x gate"; exit 1; }
    cap_pct=$(echo "$whatif_out" | grep -o '"capture_pct_of_run": [0-9.]*' | grep -o '[0-9.]*$')
    awk -v c="$cap_pct" 'BEGIN { exit !(c <= 5.0) }' \
        || { echo "snapshot capture ${cap_pct}% of a run, above the 5% gate"; exit 1; }
fi
echo "$whatif_out" | grep -vE '^WHATIF|^SNAPSHOT' > BENCH_snapshot.json
test "$(grep -c '"equal": true' BENCH_snapshot.json)" -eq 8
cat BENCH_queue.json
cat BENCH_phases.json
cat BENCH_resilience.json
cat BENCH_lint.json
cat BENCH_snapshot.json

echo "CI green."
