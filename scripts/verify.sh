#!/usr/bin/env bash
# Hermetic-build verification: the whole workspace must build and test
# offline, and every dependency of every workspace package must be a
# path dependency (no registry, no git). Run from anywhere.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> exporting and validating the Chrome trace"
cargo run --release --offline --example trace_timeline >/dev/null
python3 -c '
import json, sys

with open("target/trace_timeline.json") as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "trace must contain events"
phases = {e["ph"] for e in events}
assert "X" in phases, "trace must contain complete (X) spans"
lanes = {e["args"]["name"] for e in events
         if e["ph"] == "M" and e["name"] == "process_name"}
for lane in ("vm", "lambda", "segue"):
    assert lane in lanes, f"missing {lane} lane: {sorted(lanes)}"
print(f"OK: {len(events)} trace events across lanes {sorted(lanes)}")
'

echo "==> perf smoke: benches + BENCH_*.json shape"
scripts/bench.sh target/BENCH_shuffle.json target/BENCH_parallel.json \
    target/BENCH_obs.json target/BENCH_tenancy.json \
    target/BENCH_fleet_hot.json target/BENCH_coldstart.json >/dev/null
python3 -c '
import json

with open("target/BENCH_shuffle.json") as f:
    records = json.load(f)
names = {r["bench"] for r in records}
expected = {
    "shuffle/map_combine_encode_1m",
    "shuffle/map_encode_nocombine_500k",
    "shuffle/reduce_decode_merge_1m",
    "e2e/cloudsort_20k",
    "e2e/tpcds_q95_tiny",
    "e2e/pagerank_2k_2iter",
    "e2e/kmeans_5k",
}
missing = expected - names
assert not missing, f"missing benchmarks: {sorted(missing)}"
assert all(r["median_ns"] > 0 for r in records), "non-positive median"
print(f"OK: {len(records)} benchmarks, all medians positive")
'

echo "==> parallel data plane: worker-pool scaling medians"
python3 -c '
import json, os

with open("target/BENCH_parallel.json") as f:
    records = json.load(f)
med = {r["bench"]: r["median_ns"] for r in records}
expected = {f"parallel/pagerank_e2e_w{w}" for w in (1, 2, 4, 8)}
missing = expected - med.keys()
assert not missing, f"missing parallel benchmarks: {sorted(missing)}"
speedup = med["parallel/pagerank_e2e_w1"] / med["parallel/pagerank_e2e_w4"]
cores = os.cpu_count() or 1
if cores >= 4:
    assert speedup >= 2.5, (
        f"4-worker PageRank e2e speedup {speedup:.2f}x < 2.5x on a "
        f"{cores}-core host"
    )
    print(f"OK: 4-worker speedup {speedup:.2f}x (>= 2.5x, {cores} cores)")
else:
    # A wall-clock parallel speedup needs real cores; on a starved host
    # only record the ratio and bound the pool overhead instead.
    assert speedup >= 0.5, f"worker pool overhead is pathological: {speedup:.2f}x"
    print(
        f"SKIP speedup gate: host has {cores} core(s); "
        f"recorded w1/w4 ratio {speedup:.2f}x"
    )
'

echo "==> obs overhead: disabled-path record calls stay within budget"
python3 -c '
import json

with open("target/BENCH_obs.json") as f:
    records = json.load(f)
med = {r["bench"]: r.get("median_ns") for r in records}
expected = {
    f"obs/hot_path_disabled_1m_{k}"
    for k in ("counter_adds", "observes", "span_pairs",
              "digest_records", "rollup_records", "flight_records")
}
missing = expected - med.keys()
assert missing == set(), f"missing obs benchmarks: {sorted(missing)}"
# The documented budget: a disabled record call is one Option branch,
# single-digit ns. Gate at 15 ns/call to absorb shared-host noise.
for name in sorted(expected):
    per_call = med[name] / 1e6  # 1M calls per sample
    assert per_call <= 15.0, (
        f"{name}: {per_call:.2f} ns/call exceeds the 15 ns disabled budget"
    )
    print(f"OK: {name} {per_call:.2f} ns/call")
ratio = next(r for r in records if r["bench"] == "obs/enabled_over_disabled_ratio")
ratio_val = ratio["ratio"]
print(f"OK: enabled/disabled scenario walltime ratio {ratio_val:.4f}")
'

echo "==> tenancy control plane: admission throughput recorded"
python3 -c '
import json

with open("target/BENCH_tenancy.json") as f:
    records = json.load(f)
med = {r["bench"]: r["median_ns"] for r in records}
expected = {
    "tenancy/admission_50k_jobs_100_tenants",
    "tenancy/admission_50k_jobs_8_tenants",
    "tenancy/arrivals_100k_poisson",
}
missing = expected - med.keys()
assert not missing, f"missing tenancy benchmarks: {sorted(missing)}"
# 50k jobs through the 100-tenant controller: demand at least 20k
# admission decisions per second (measured ~230k/s; 10x headroom).
jobs_per_sec = 50_000 / (med["tenancy/admission_50k_jobs_100_tenants"] / 1e9)
assert jobs_per_sec >= 20_000, (
    f"admission throughput {jobs_per_sec:,.0f} jobs/s below the 20k floor"
)
print(f"OK: admission throughput {jobs_per_sec:,.0f} jobs/s at 100 tenants")
'

echo "==> fleet hot loop: enabled handle records + worker scaling"
python3 -c '
import json, os

with open("target/BENCH_fleet_hot.json") as f:
    records = json.load(f)
med = {r["bench"]: r["median_ns"] for r in records}
expected = {
    "fleet_hot/admission_10k_jobs_100_tenants",
    "fleet_hot/admission_50k_jobs_100_tenants",
    "fleet_hot/handle_record_counter_1m",
    "fleet_hot/handle_record_histogram_1m",
    "fleet_hot/handle_record_quantile_1m",
    "fleet_hot/fleet_e2e_w1",
    "fleet_hot/fleet_e2e_w4",
}
missing = expected - med.keys()
assert not missing, f"missing fleet_hot benchmarks: {sorted(missing)}"
# A pre-resolved handle on the *enabled* path is one OnceLock deref plus
# an atomic (counter) or a lock-free bucket bump (histogram): gate the
# counter at 50 ns/call (measured ~9 ns; 5x headroom for shared hosts)
# and record the heavier instruments.
per_call = med["fleet_hot/handle_record_counter_1m"] / 1e6  # 1M calls
assert per_call <= 50.0, (
    f"enabled counter handle {per_call:.2f} ns/call exceeds the 50 ns budget"
)
print(f"OK: handle_record_counter {per_call:.2f} ns/call (<= 50 ns)")
for name in ("handle_record_histogram_1m", "handle_record_quantile_1m"):
    per = med["fleet_hot/" + name] / 1e6
    print(f"OK: fleet_hot/{name} {per:.2f} ns/call")
speedup = med["fleet_hot/fleet_e2e_w1"] / med["fleet_hot/fleet_e2e_w4"]
cores = os.cpu_count() or 1
if cores >= 4:
    assert speedup >= 1.5, (
        f"4-worker fleet e2e speedup {speedup:.2f}x < 1.5x on a "
        f"{cores}-core host"
    )
    print(f"OK: fleet 4-worker speedup {speedup:.2f}x (>= 1.5x, {cores} cores)")
else:
    # Parallel wall-clock wins need real cores; on a starved host just
    # record the ratio. No lower bound: w4 pays for pool handoffs on
    # cores it does not have, so the ratio falls whenever the serial path
    # gets faster (0.20 at PR 11, 0.16 at PR 13) and a bound on it fails
    # speed-ups. Whether the pool earns its keep is ROADMAP item 1(e).
    print(
        f"SKIP fleet speedup gate: host has {cores} core(s); "
        f"recorded w1/w4 ratio {speedup:.2f}x"
    )
'
python3 -c '
import json

with open("target/BENCH_coldstart.json") as f:
    records = json.load(f)
med = {r["bench"]: r["median_ns"] for r in records}
expected = {
    "coldstart/decision_fixed_1m",
    "coldstart/decision_pressure_1m",
    "coldstart/decision_hybrid_1m",
    "coldstart/churn_100k_fixed",
    "coldstart/churn_100k_pressure",
    "coldstart/churn_100k_hybrid",
}
missing = expected - med.keys()
assert not missing, f"missing coldstart benchmarks: {sorted(missing)}"
# A park decision sits on the release path of every Lambda the allocator
# drains: gate every policy at 100 ns/call (measured ~2 ns fixed/pressure,
# ~6 ns hybrid answering from its cached windows).
for name in ("decision_fixed_1m", "decision_pressure_1m", "decision_hybrid_1m"):
    per = med["coldstart/" + name] / 1e6  # 1M calls
    assert per <= 100.0, (
        f"coldstart/{name} {per:.2f} ns/call exceeds the 100 ns budget"
    )
    print(f"OK: coldstart/{name} {per:.2f} ns/call (<= 100 ns)")
for name in ("churn_100k_fixed", "churn_100k_pressure", "churn_100k_hybrid"):
    per = med["coldstart/" + name] / 1e5  # 100k invoke/release pairs
    print(f"OK: coldstart/{name} {per:.1f} ns/pair")
'

echo "==> fleet hot loop: no string-keyed ids on dispatch paths"
# The fast path interns executor ids (Copy u32 handles) and backs tenant
# ids with Arc<str>; a String-backed ExecutorId or a per-dispatch string
# clone would silently reintroduce the allocations this plane removed.
if grep -rn "ExecutorId(String)\|ExecutorId(pub String)" crates/; then
    echo "ERROR: string-backed ExecutorId reintroduced" >&2
    exit 1
fi
grep -q "pub struct ExecutorId(Interned)" crates/engine/src/executor.rs || {
    echo "ERROR: ExecutorId is no longer an interned Copy handle" >&2
    exit 1
}
if grep -n "\.id\.0\.clone()\|executor\.id\.clone()" \
    crates/engine/src/scheduler.rs crates/engine/src/executor.rs; then
    echo "ERROR: executor-id clone on the dispatch path" >&2
    exit 1
fi
grep -q "pub struct TenantId(Arc<str>)" crates/obs/src/ledger.rs || {
    echo "ERROR: TenantId is no longer Arc<str>-backed" >&2
    exit 1
}
echo "OK: executor ids interned, tenant ids Arc-backed, no dispatch clones"

echo "==> tenant fleet: bit-deterministic across runs and worker counts"
cargo run --release --offline --example tenant_fleet \
    target/tenant_fleet_run1.json >/dev/null
cargo run --release --offline --example tenant_fleet \
    target/tenant_fleet_run2.json >/dev/null
diff target/tenant_fleet_run1.json target/tenant_fleet_run2.json
SPLITSERVE_WORKERS=1 cargo run --release --offline --example tenant_fleet \
    target/tenant_fleet_w1.json > target/tenant_fleet_w1.out
SPLITSERVE_WORKERS=4 cargo run --release --offline --example tenant_fleet \
    target/tenant_fleet_w4.json > target/tenant_fleet_w4.out
# The artifact embeds the worker count it ran with; normalize that one
# field, then the two runs must be byte-identical.
sed 's/"workers":[0-9]*/"workers":N/' target/tenant_fleet_w1.json \
    > target/tenant_fleet_w1.norm.json
sed 's/"workers":[0-9]*/"workers":N/' target/tenant_fleet_w4.json \
    > target/tenant_fleet_w4.norm.json
diff target/tenant_fleet_w1.norm.json target/tenant_fleet_w4.norm.json
# Pin the artifact digests byte-for-byte (xxhash64 of the JSON, printed
# by the example). The hot-loop fast path claims byte-identity with the
# pre-optimization output; any drift must be a deliberate pin update.
grep -q "digest=8d89667a0715385b" target/tenant_fleet_w1.out || {
    echo "ERROR: tenant_fleet workers=1 digest drifted from 8d89667a0715385b:" >&2
    cat target/tenant_fleet_w1.out >&2
    exit 1
}
grep -q "digest=253741d9db7d2b6f" target/tenant_fleet_w4.out || {
    echo "ERROR: tenant_fleet workers=4 digest drifted from 253741d9db7d2b6f:" >&2
    cat target/tenant_fleet_w4.out >&2
    exit 1
}
echo "OK: tenant_fleet digests pinned (w1 8d89667a0715385b, w4 253741d9db7d2b6f)"
python3 <<'FLEET_CHECK'
import json

with open("target/tenant_fleet_run1.json") as f:
    fleet = json.load(f)
assert fleet["tenants"] >= 100, f"fleet below tenant floor: {fleet['tenants']}"
assert fleet["jobs"] >= 10_000, f"fleet below job floor: {fleet['jobs']}"
policies = fleet["policies"]
assert {p["policy"] for p in policies} == {"vm-only", "splitserve", "lambda-heavy"}
fingerprints = set()
for p in policies:
    assert p["jobs"] == fleet["jobs"], "every policy must run every job"
    assert 0.0 <= p["fleet_slo_attainment"] <= 1.0
    assert p["cost_usd"] > 0.0
    assert p["admission_events"] == 3 * p["jobs"], (
        "each job must log arrive/dispatch/complete"
    )
    fingerprints.add(p["fingerprint"])
    classes = {c["class"] for c in p["classes"]}
    assert classes == {"interactive", "standard", "batch"}, classes
    class_bill = 0.0
    for c in p["classes"]:
        assert c["jobs"] > 0, f"empty class {c['class']} under {p['policy']}"
        assert 0.0 <= c["slo_attainment"] <= 1.0
        assert c["attainment_curve"], "attainment curve must be non-empty"
        assert c["bill_curve"], "bill curve must be non-empty"
        assert abs(c["bill_curve"][-1]["cumulative_usd"] - c["bill_total_usd"]) <= 2e-6
        class_bill += c["bill_total_usd"]
    # Per-tenant accrual plus the final settlement must land exactly on
    # the cloud bill (6-decimal print grid; allow one ulp of it).
    assert abs(p["bill_total_usd"] - p["cost_usd"]) <= 2e-6, (
        f"{p['policy']}: ledger {p['bill_total_usd']} != bill {p['cost_usd']}"
    )
    assert abs(class_bill + p["bill_settle_usd"] - p["bill_total_usd"]) <= 2e-6
assert len(fingerprints) == 1, (
    f"policies computed different data: {sorted(fingerprints)}"
)
vm, ss = (next(p for p in policies if p["policy"] == k)
          for k in ("vm-only", "splitserve"))
assert ss["fleet_slo_attainment"] > vm["fleet_slo_attainment"], (
    "splitserve must beat vm-only on fleet SLO attainment"
)
print(f"OK: tenant_fleet {fleet['tenants']} tenants x {fleet['jobs']} jobs; "
      f"attainment vm-only {vm['fleet_slo_attainment']:.3f} "
      f"vs splitserve {ss['fleet_slo_attainment']:.3f}; bills settle")
FLEET_CHECK

echo "==> coldstart sweep: bit-deterministic, pinned, hybrid beats fixed"
cargo run --release --offline --example coldstart_sweep \
    target/coldstart_sweep_run1.json >/dev/null
cargo run --release --offline --example coldstart_sweep \
    target/coldstart_sweep_run2.json >/dev/null
diff target/coldstart_sweep_run1.json target/coldstart_sweep_run2.json
SPLITSERVE_WORKERS=1 cargo run --release --offline --example coldstart_sweep \
    target/coldstart_sweep_w1.json > target/coldstart_sweep_w1.out
SPLITSERVE_WORKERS=4 cargo run --release --offline --example coldstart_sweep \
    target/coldstart_sweep_w4.json > target/coldstart_sweep_w4.out
# The artifact embeds the worker count it ran with; normalize that one
# field, then the two runs must be byte-identical — the policy plane
# schedules no events and draws no RNG, so worker count cannot reach it.
sed 's/"workers":[0-9]*/"workers":N/' target/coldstart_sweep_w1.json \
    > target/coldstart_sweep_w1.norm.json
sed 's/"workers":[0-9]*/"workers":N/' target/coldstart_sweep_w4.json \
    > target/coldstart_sweep_w4.norm.json
diff target/coldstart_sweep_w1.norm.json target/coldstart_sweep_w4.norm.json
grep -q "digest=ec0839a991f0ee1d" target/coldstart_sweep_w1.out || {
    echo "ERROR: coldstart_sweep workers=1 digest drifted from ec0839a991f0ee1d:" >&2
    cat target/coldstart_sweep_w1.out >&2
    exit 1
}
grep -q "digest=681e16f146535f03" target/coldstart_sweep_w4.out || {
    echo "ERROR: coldstart_sweep workers=4 digest drifted from 681e16f146535f03:" >&2
    cat target/coldstart_sweep_w4.out >&2
    exit 1
}
echo "OK: coldstart_sweep digests pinned (w1 ec0839a991f0ee1d, w4 681e16f146535f03)"
python3 <<'COLDSTART_CHECK'
import json

with open("target/coldstart_sweep_run1.json") as f:
    sweep = json.load(f)
arms = {a["coldstart"]: a for a in sweep["arms"]}
assert set(arms) == {"forever", "fixed:15", "pressure:6144", "hybrid:15"}, set(arms)
micro = {m["coldstart"]: m for m in sweep["microtrace"]["policies"]}
assert set(micro) == set(arms), "microtrace must cover every arm"
for sel, a in arms.items():
    total = a["warm_starts"] + a["cold_starts"] + a["prewarm_starts"]
    assert total > 0, f"{sel}: the fleet never exercised the warm pool"
    assert 0.0 <= a["cold_fraction"] <= 1.0
    assert a["wasted_gb_seconds"] >= 0.0
    assert a["cost_usd"] > 0.0
# The recurrent microtrace is the controlled experiment: a gap beyond the
# fixed window, repeated until the histogram converges. The hybrid policy
# must do no worse than its own fixed fallback — and here, strictly
# better, with prewarms doing the work.
mf, mh = micro["fixed:15"], micro["hybrid:15"]
assert mh["cold_fraction"] <= mf["cold_fraction"], (
    f"hybrid {mh['cold_fraction']} worse than fixed {mf['cold_fraction']}"
)
assert mh["cold_starts"] < mf["cold_starts"], "hybrid never converged"
assert mh["prewarm_starts"] > 0, "hybrid converged without prewarming?"
# The infinite pool is the cold-start lower bound of the non-prewarming
# arms; the capped pool trades cold starts for bounded warm memory.
assert micro["forever"]["cold_starts"] <= mf["cold_starts"]
assert micro["forever"]["wasted_gb_seconds"] >= micro["pressure:6144"]["wasted_gb_seconds"], (
    "the cap must bound wasted warm memory below the infinite pool"
)
# On the fleet itself the same ordering holds for this recurrent-burst
# workload: policy choice reaches attainment-relevant start latencies.
assert arms["hybrid:15"]["cold_fraction"] <= arms["fixed:15"]["cold_fraction"], (
    "hybrid must not exceed fixed cold fraction on the recurrent fleet"
)
print(f"OK: coldstart_sweep micro cold-fractions "
      f"forever {micro['forever']['cold_fraction']:.3f} / "
      f"pressure {micro['pressure:6144']['cold_fraction']:.3f} / "
      f"hybrid {mh['cold_fraction']:.3f} <= fixed {mf['cold_fraction']:.3f}; "
      f"fleet hybrid {arms['hybrid:15']['cold_fraction']:.3f} "
      f"<= fixed {arms['fixed:15']['cold_fraction']:.3f}")
COLDSTART_CHECK

echo "==> slo dashboard: bit-deterministic across runs and worker counts"
cargo run --release --offline --example slo_dashboard \
    target/slo_dashboard_run1.json >/dev/null
cargo run --release --offline --example slo_dashboard \
    target/slo_dashboard_run2.json >/dev/null
diff target/slo_dashboard_run1.json target/slo_dashboard_run2.json
SPLITSERVE_WORKERS=1 cargo run --release --offline --example slo_dashboard \
    target/slo_dashboard_w1.json >/dev/null
SPLITSERVE_WORKERS=4 cargo run --release --offline --example slo_dashboard \
    target/slo_dashboard_w4.json >/dev/null
# The artifact embeds the worker count it ran with; normalize that one
# field, then the two runs must be byte-identical.
sed 's/"workers":[0-9]*/"workers":N/' target/slo_dashboard_w1.json \
    > target/slo_dashboard_w1.norm.json
sed 's/"workers":[0-9]*/"workers":N/' target/slo_dashboard_w4.json \
    > target/slo_dashboard_w4.norm.json
diff target/slo_dashboard_w1.norm.json target/slo_dashboard_w4.norm.json
python3 -c '
import json

with open("target/slo_dashboard_run1.json") as f:
    dash = json.load(f)
policies = dash["policies"]
assert {p["policy"] for p in policies} == {"vm-pool-only", "splitserve"}, policies
for p in policies:
    assert p["jobs"] > 0
    assert 0.0 <= p["slo_attainment"] <= 1.0
    assert p["cost_usd"] > 0.0
    assert p["attainment_curve"], "attainment curve must be non-empty"
    assert p["bill_curve"], "bill curve must be non-empty"
    q = p["latency_quantiles"]
    assert set(q) == {"p50", "p90", "p95", "p99"}, q
    assert q["p50"] <= q["p99"], f"quantiles out of order: {q}"
    cumulative = p["bill_curve"][-1]["cumulative_usd"]
    cost = p["cost_usd"]
    # Both sides are printed at 6 decimals; allow one ulp of that grid.
    assert abs(cumulative - cost) <= 2e-6, (
        f"bill ledger ({cumulative}) must settle to the cloud bill ({cost})"
    )
vm, ss = (next(p for p in policies if p["policy"] == k)
          for k in ("vm-pool-only", "splitserve"))
vm_att, ss_att = vm["slo_attainment"], ss["slo_attainment"]
assert ss_att > vm_att, (
    "splitserve must beat vm-pool-only on SLO attainment in the burst scenario"
)
print(f"OK: slo_dashboard attainment vm-pool-only {vm_att:.3f} "
      f"vs splitserve {ss_att:.3f}")
'

echo "==> chaos smoke: fault plane must be bit-deterministic across runs"
cargo run --release --offline --example chaos_smoke > target/chaos_smoke_run1.txt
cargo run --release --offline --example chaos_smoke > target/chaos_smoke_run2.txt
diff target/chaos_smoke_run1.txt target/chaos_smoke_run2.txt
grep -q "64/64 cases completed" target/chaos_smoke_run1.txt
# Pinned chaos digest: the fault plane's 64-case differential must not
# drift a bit under hot-loop optimizations.
grep -q "digest=26b7f0f21a671813" target/chaos_smoke_run1.txt || {
    echo "ERROR: chaos digest drifted from 26b7f0f21a671813:" >&2
    tail -1 target/chaos_smoke_run1.txt >&2
    exit 1
}
tail -1 target/chaos_smoke_run1.txt

echo "==> chaos smoke: digests identical at workers=1 and workers=4"
SPLITSERVE_WORKERS=1 cargo run --release --offline --example chaos_smoke \
    > target/chaos_smoke_w1.txt
SPLITSERVE_WORKERS=4 cargo run --release --offline --example chaos_smoke \
    > target/chaos_smoke_w4.txt
diff target/chaos_smoke_w1.txt target/chaos_smoke_w4.txt
tail -1 target/chaos_smoke_w4.txt

echo "==> perf ledger: harness tests + smoke run (benchmark/run.sh --quick)"
# The benchmark is a workspace of its own that calls the public surface
# listed in benchmark/README.md and checks its own digest-transparency
# tests; a change that breaks either must fail here, not in the pipeline.
bash benchmark/run.sh --quick >/dev/null

echo "==> checking for non-path dependencies"
cargo metadata --offline --format-version 1 |
    python3 -c '
import json, sys

meta = json.load(sys.stdin)
bad = [
    (pkg["name"], dep["name"])
    for pkg in meta["packages"]
    for dep in pkg["dependencies"]
    if dep.get("path") is None
]
if bad:
    for pkg, dep in bad:
        print(f"non-path dependency: {pkg} -> {dep}", file=sys.stderr)
    sys.exit(1)
count = len(meta["packages"])
print(f"OK: {count} packages, all dependencies are path dependencies")
'

echo "==> verify.sh passed"
