#!/usr/bin/env bash
# Tier-1 verification gate for the TS3Net reproduction workspace.
#
# Everything runs --offline: this workspace has no external dependencies
# (see DESIGN.md §5), so a clean checkout must pass with no network and
# no registry cache. Referenced from README.md and the repo verify skill.
set -euo pipefail
cd "$(dirname "$0")/.."

# Workspace Rust LoC: `.rs` lines under crates/ src/ tests/ examples/,
# the one count each change reports its delta against. Printed first, so
# a run that stops at a failing gate still reports it.
echo "workspace Rust LoC: $(find crates src tests examples -name '*.rs' -not -path '*/target/*' \
  -print0 | xargs -0 cat | wc -l)"

echo "== 1/11 release build (offline) =="
cargo build --release --workspace --offline

echo "== 2/11 test suite =="
cargo test -q --workspace --offline
# The scalar path. TS3_SIMD=0 turns the explicit AVX2 kernels off, so
# gemm's naive loop and packed tile serve every product the short-M tile
# serves otherwise, conv's tap/pixel views included: the tensor and
# autograd suites and the schedule-fuzz sweep must hold bit for bit there
# too.
TS3_SIMD=0 cargo test -q --offline -p ts3-tensor -p ts3-autograd
TS3_SIMD=0 cargo test -q --offline --test sched_fuzz_sweep

echo "== 3/11 rustdoc incl. private items (warnings are errors) =="
# --document-private-items keeps internal doc comments (executor loop,
# compiled plans, kernel internals) to the same standard as the public
# API: a broken intra-doc link in a private item fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline \
  --document-private-items

echo "== 4/11 dependency hermeticity =="
if cargo tree --workspace --edges normal --offline | grep -Ev '^\s*$' \
    | grep -oE '[a-zA-Z0-9_-]+ v[0-9][^ ]*' | grep -v '^ts3' ; then
  echo "FAIL: non-workspace crate in the dependency tree" >&2
  exit 1
fi
echo "ok: dependency tree is ts3-* only"

echo "== 5/11 observability smoke (every experiment, TS3_TRACE=1 manifests) =="
# Every `ts3` experiment runs at smoke with tracing on; trace_check
# parses each manifest with ts3-json and asserts its contents. table4
# runs on one dataset and must carry epoch events and kernel spans, and
# its TS3Net forecast and TF-Block spans must be broken down by their
# children (self-time at most 10% of total).
for name in table2 table3 table5 table6 table7 table8 table9 fig3 fig4 fig5; do
  TS3_TRACE=1 ./target/release/ts3 "$name" --smoke > /dev/null 2>&1
  ./target/release/trace_check "results/${name}_smoke.trace.json"
done
TS3_TRACE=1 ./target/release/ts3 table4 --smoke ETTh1 > /dev/null 2>&1
./target/release/trace_check results/table4_smoke.trace.json \
  --require-epoch --require-kernel-span \
  --require-coverage ts3net.forecast \
  --require-coverage ts3net.block0 --require-coverage ts3net.block1
echo "ok: all 11 experiments ran; trace manifests parse, table4 carries epoch events + kernel spans + a covered forecast"

echo "== 6/11 kernel bench smoke + regression gate =="
# Reduced kernel subset at a 40 ms budget against the committed smoke
# baseline. The +50% threshold is deliberately generous: smoke medians
# are short-budget, and the gate exists to catch order-of-magnitude
# kernel regressions (a lost vector path, an accidental O(n^2) fallback),
# not single-digit drift. Wrapped in `timeout` so a hung kernel fails
# the gate instead of wedging CI.
timeout 900 ./scripts/bench.sh --smoke --out-dir target/bench-smoke > /dev/null
./target/release/bench_compare results/BENCH_kernels_smoke.json \
  target/bench-smoke/BENCH_kernels_smoke.json --threshold 50
# On hosts that advertise AVX2, the explicit SIMD kernels must actually
# have run during the smoke: the bench traces with TS3_TRACE=1, so the
# `.sched.` dispatch counters land in its manifest. `short_m_avx2` counts
# the conv2d / conv2d_backward calls (Co = 8 in the smoke) whose products
# ran gemm's short-M kernel; `tanh_avx2` counts the gelu/8x8x8x96 calls
# that ran the AVX2 tanh; `lanes_avx2` counts the CWT lane groups of
# cwt/forward_amp_lanes/96x16x7 that ran the AVX2 lane bank. (Counters
# only — outputs are bitwise identical across dispatch, see
# crates/tensor/src/simd.rs and crates/signal/tests/cwt_lanes.rs.)
if grep -q avx2 /proc/cpuinfo 2>/dev/null; then
  ./target/release/trace_check results/BENCH_kernels_smoke.trace.json \
    --require-counter tensor.gemm.sched.dispatch_avx2 \
    --require-counter tensor.gemm.sched.short_m_avx2 \
    --require-counter tensor.gelu.sched.tanh_avx2 \
    --require-counter signal.fft.sched.dispatch_avx2 \
    --require-counter signal.cwt.sched.lanes_avx2
  echo "ok: AVX2 dispatch counters ticked during the bench smoke"
fi
# The lint precondition inside bench.sh also records its own wall time
# and diagnostic count as a ts3.bench.v1 row; pin it against the
# committed baseline so the analyzer cannot silently grow quadratic.
./target/release/bench_compare results/BENCH_lint_smoke.json \
  target/bench-smoke/BENCH_lint_smoke.json --threshold 100

echo "== 7/11 serving + streaming bench smoke + regression gates =="
# Closed-loop serving latency (ts3-serve) at 1/8/64 clients against the
# committed baseline. The +100% threshold is wider than the kernel
# gate's: end-to-end latency includes channel wakeups and scheduling
# noise, and this gate exists to catch a broken batching path (e.g. the
# coalescer degenerating to batch=1), which shifts serve_rate by far
# more than 2x. Still gated by `timeout` like the kernel smoke.
timeout 900 env TS3_THREADS=2 ./target/release/serve_bench --smoke \
  --out-dir target/serve-smoke > /dev/null
./target/release/bench_compare results/BENCH_serve_smoke.json \
  target/serve-smoke/BENCH_serve_smoke.json --threshold 100
# Streaming decomposition: the correctness contract (every pulse
# bitwise-equal to batch on the same trailing window) is the
# pulse_equivalence suite, already run by gate 2; here only the
# per-sample cost. stream_bench itself fails if streamed cost is not
# >= 5x below recompute-from-scratch on the 96-step window; on top of
# that, bench_compare pins absolute drift against the committed
# baseline at the same generous +100%.
timeout 900 env TS3_THREADS=1 ./target/release/stream_bench --smoke \
  --out-dir target/stream-smoke > /dev/null
./target/release/bench_compare results/BENCH_stream_smoke.json \
  target/stream-smoke/BENCH_stream_smoke.json --threshold 100

echo "== 8/11 docs liveness (crate inventories) =="
# Every workspace crate must appear in ARCHITECTURE.md's crate map and
# DESIGN.md's component inventory, so the two documents cannot silently
# rot as crates are added.
missing=0
for manifest in crates/*/Cargo.toml; do
  crate=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n1)
  for doc in ARCHITECTURE.md DESIGN.md; do
    if ! grep -q "$crate" "$doc"; then
      echo "FAIL: $crate (from $manifest) is missing from $doc" >&2
      missing=1
    fi
  done
done
[ "$missing" -eq 0 ] || exit 1
echo "ok: all $(ls -d crates/*/ | wc -l) crates are documented in ARCHITECTURE.md and DESIGN.md"

echo "== 9/11 static analysis (ts3lint --deny-all) =="
# The in-workspace lint pass (crates/lint): determinism, hermeticity and
# safety contracts as machine-checked rules. --deny-all promotes
# warnings (stale allow directives) to failures so the committed tree
# stays exactly clean, not merely error-free. The JSON report is
# validated by gate 11.
./target/release/ts3lint --deny-all --json target/lint.json

echo "== 10/11 serving telemetry (timeline + flight + exposition) =="
# serve_obs drives a stalled request sim (forced deadline-miss burst)
# and an online streaming sim under tracing, then writes every ts3-obs
# v2 artifact. trace_check validates the ts3.timeline.v1 and
# ts3.flight.v1 schemas (the flight check fails unless the SLO trigger
# actually fired); the text exposition is tick-valued only, so two runs
# must be byte-identical; the folded-stacks profile must be non-empty.
timeout 900 env TS3_TRACE=1 TS3_THREADS=2 ./target/release/serve_obs --smoke \
  --out-dir target/obs-a > /dev/null
timeout 900 env TS3_TRACE=1 TS3_THREADS=2 ./target/release/serve_obs --smoke \
  --out-dir target/obs-b > /dev/null
./target/release/trace_check --timeline target/obs-a/serve_obs.timeline.json
./target/release/trace_check --flight target/obs-a/serve_obs.flight.json
cmp target/obs-a/serve_obs.prom target/obs-b/serve_obs.prom
test -s target/obs-a/serve_obs.folded
echo "ok: timeline/flight validate, exposition byte-stable, folded stacks non-empty"

echo "== 11/11 lint report schema + schedule-fuzz race harness =="
# trace_check validates gate 9's JSON report against the ts3.lint.v2
# schema: per-rule timings (graph rule families included) plus the
# resolved crate DAG must be present and internally closed.
./target/release/trace_check --lint target/lint.json
# Deterministic schedule fuzzing: 16 seeded worker-schedule permutations
# x thread counts {1,2,4} must produce bitwise-identical matmul / FFT /
# decomposition / forward-pass outputs and taped-step parameter
# gradients. TS3_SCHED_FUZZ=7 additionally
# proves the env knob wiring (the test asserts the knob was picked up).
TS3_SCHED_FUZZ=7 cargo test -q --offline --test sched_fuzz_sweep

echo "verify: all gates passed"
