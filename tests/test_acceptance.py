"""Acceptance suite: one test per headline behavior of the package.

Every test here drives a complete experiment through the same entry points
the CLI uses — the preset files under ``configs/`` — and then checks the
documented claim about the resulting curve, comparison or artifact.  Each
test prints a single ``PASS:``/``FAIL:`` line naming the claim it checked,
so a verbose run reads as a checklist.

The checks, in order:

1.  core math matches exact-arithmetic references on 10,000 random inputs
    per function within 1e-12 relative error;
2.  sweeping the scale-up threshold on the mixed-intensive workload yields
    an energy valley in [0.65, 0.85] and a higher cost at 0.95;
3.  enabling scale-down on a workload with a deep trough cuts energy by at
    least 25% against the same policy with reclaim disabled;
4.  on the synchronized-spiky workload the dissimilar placement method has
    zero SLA violations for thresholds <= 0.6 and the free-fit method has
    zero across the whole threshold grid;
5.  violations are zero for scale-up thresholds <= 0.5 and never decrease
    as the threshold grows;
6.  violations reach zero once the safety buffer is >= 0.2 and energy is
    nondecreasing for buffers beyond 0.25;
7.  the tuned preset beats the single-threshold baseline on identical
    inputs by >= 10% energy and >= 40% fewer violations;
8.  identical config + seed reproduce byte-identical CSV artifacts;
9.  1,000 randomized small instances pass every structural invariant and
    brute-force cross-check.
"""

from __future__ import annotations

import filecmp
import random
from pathlib import Path

import pytest

import _oracles as oracle
from _instances import run_checked_instance
from dcsim.cli import main as cli_main
from dcsim.config import build_experiment, load_raw_config
from dcsim.metrics import compare_policies, run_sweep
from dcsim.model import PowerModel, running_power, shares_of, utilization_of
from dcsim.policies.similarity import cosine_of

pytestmark = pytest.mark.acceptance

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

ORACLE_INPUTS = 10_000
ORACLE_TOLERANCE = 1e-12
INVARIANT_INSTANCES = 1_000


def _verdict(ok: bool, claim: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {claim}")
    assert ok, claim


def _experiment(config_name: str):
    path = CONFIG_DIR / config_name
    raw = load_raw_config(str(path))
    return build_experiment(raw, base_dir=str(CONFIG_DIR))


def _run_config_sweep(config_name: str, **policy_overrides):
    exp = _experiment(config_name)
    workload = exp.materialize_workload()
    policy_spec = dict(exp.policy_spec)
    policy_spec.update(policy_overrides)
    return run_sweep(
        exp.sim_config,
        workload,
        policy_spec,
        exp.sweep["parameter"],
        values=exp.sweep["values"],
    )


def _nondecreasing(values, slack=0.0) -> bool:
    return all(b >= a - slack for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# 1. Core math against exact references
# ---------------------------------------------------------------------------


def test_01_core_math_matches_exact_references_on_10000_inputs():
    rng = random.Random(20240815)
    worst = 0.0

    for _ in range(ORACLE_INPUTS):
        a = oracle.random_rv_tuple(rng)
        b = oracle.random_rv_tuple(rng)
        got = cosine_of(a, b)
        worst = max(worst, oracle.rel_error(got, oracle.mp_cosine(a, b)))

    for _ in range(ORACLE_INPUTS):
        rv = oracle.random_rv_tuple(rng)
        w = oracle.random_weights_tuple(rng)
        got = utilization_of(rv, w)
        worst = max(worst, oracle.rel_error(got, oracle.exact_unified(rv, w)))

    for _ in range(ORACLE_INPUTS):
        rv = oracle.random_rv_tuple(rng)
        src = oracle.random_capacity_tuple(rng)
        dst = oracle.random_capacity_tuple(rng)
        # Rescaling a share between machines: the amounts ``v·from`` as shares of ``to``.
        got = shares_of(tuple(v * f for v, f in zip(rv, src)), dst)
        expect = oracle.exact_rescale(rv, src, dst)
        for g, e in zip(got, expect):
            worst = max(worst, oracle.rel_error(g, e))

    for _ in range(ORACLE_INPUTS):
        peak = 10.0 ** rng.uniform(0.0, 4.0)
        idle = rng.random()
        u = oracle.random_fraction(rng)
        got = running_power(peak, u, PowerModel(idle_fraction=idle))
        worst = max(worst, oracle.rel_error(got, oracle.exact_power(peak, idle, u)))

    # The share formula the engine uses for resource vectors, including the
    # clamp of over-committed amounts.
    for _ in range(ORACLE_INPUTS):
        cap = oracle.random_capacity_tuple(rng)
        amounts = tuple(rng.uniform(0.0, 1.5 * c) for c in cap)
        got = shares_of(amounts, cap)
        for g, e in zip(got, oracle.exact_window_rv([amounts], cap)):
            worst = max(worst, oracle.rel_error(g, e))

    _verdict(
        worst <= ORACLE_TOLERANCE,
        "core math (cosine, unified utilization, resource shares, rescale, power) matches exact "
        f"references on {ORACLE_INPUTS} inputs each; worst relative error "
        f"{worst:.3e} <= {ORACLE_TOLERANCE}",
    )


# ---------------------------------------------------------------------------
# 2. Scale-up threshold energy valley
# ---------------------------------------------------------------------------


def test_02_scale_up_energy_valley_between_065_and_085():
    result = _run_config_sweep("sweep_scale_up_energy.json")
    assert not result.skipped, f"skipped sweep points: {result.skipped}"
    by_value = {p.value: p.energy_kwh for p in result.points}
    best = min(result.points, key=lambda p: p.energy_kwh)
    ok = 0.65 <= best.value <= 0.85 and by_value[0.95] > best.energy_kwh
    _verdict(
        ok,
        f"scale-up energy curve bottoms out at u_up={best.value} "
        f"({best.energy_kwh:.2f} kWh) within [0.65, 0.85], and u_up=0.95 costs "
        f"more ({by_value[0.95]:.2f} kWh)",
    )


# ---------------------------------------------------------------------------
# 3. Scale-down savings on a trough workload
# ---------------------------------------------------------------------------


def test_03_scale_down_saves_at_least_25_percent_energy():
    result = _run_config_sweep("sweep_scale_down.json")
    assert not result.skipped, f"skipped sweep points: {result.skipped}"
    by_value = {p.value: p.energy_kwh for p in result.points}
    disabled = by_value[0.0]
    enabled = by_value[0.15]
    savings = 1.0 - enabled / disabled
    _verdict(
        savings >= 0.25,
        f"scale-down at u_down=0.15 uses {enabled:.2f} kWh vs {disabled:.2f} kWh "
        f"when disabled: {savings:.1%} savings (>= 25% required)",
    )


# ---------------------------------------------------------------------------
# 4. Similarity threshold vs violations, per placement method
# ---------------------------------------------------------------------------


def test_04_similarity_threshold_keeps_violations_at_zero():
    dissimilar = _run_config_sweep("sweep_similarity_threshold.json")
    free_fit = _run_config_sweep(
        "sweep_similarity_threshold.json", similarity_method="free-fit"
    )
    assert not dissimilar.skipped and not free_fit.skipped
    dissimilar_low = [p for p in dissimilar.points if p.value <= 0.6]
    ok_dissimilar = all(p.sla_violations == 0 for p in dissimilar_low)
    ok_free = all(p.sla_violations == 0 for p in free_fit.points)
    _verdict(
        ok_dissimilar and ok_free,
        "zero violations: dissimilar method over thresholds <= 0.6 "
        f"({len(dissimilar_low)} points) and free-fit method over the full grid "
        f"({len(free_fit.points)} points)",
    )


# ---------------------------------------------------------------------------
# 5. Scale-up threshold vs violations
# ---------------------------------------------------------------------------


def test_05_violations_zero_up_to_05_then_never_decrease():
    result = _run_config_sweep("sweep_scale_up_sla.json")
    assert not result.skipped, f"skipped sweep points: {result.skipped}"
    low = [p.sla_violations for p in result.points if p.value <= 0.5]
    curve = [p.sla_violations for p in result.points]
    ok = all(v == 0 for v in low) and _nondecreasing(curve)
    _verdict(
        ok,
        f"violations are zero for u_up <= 0.5 and nondecreasing across the grid: "
        f"{curve}",
    )


# ---------------------------------------------------------------------------
# 6. Safety-buffer knee
# ---------------------------------------------------------------------------


def test_06_buffer_knee_at_02_and_energy_rises_beyond_025():
    result = _run_config_sweep("sweep_buffer.json")
    assert not result.skipped, f"skipped sweep points: {result.skipped}"
    at_or_above = [p for p in result.points if p.value >= 0.2]
    below = [p for p in result.points if p.value < 0.2]
    tail = [p.energy_kwh for p in result.points if p.value >= 0.25]
    ok = (
        all(p.sla_violations == 0 for p in at_or_above)
        and any(p.sla_violations > 0 for p in below)
        and _nondecreasing(tail, slack=1e-9)
    )
    _verdict(
        ok,
        "violations reach zero at buffer >= 0.2 (nonzero below) and energy is "
        f"nondecreasing beyond 0.25: {[round(e, 2) for e in tail]}",
    )


# ---------------------------------------------------------------------------
# 7. Head-to-head against the single-threshold baseline
# ---------------------------------------------------------------------------


def test_07_tuned_preset_beats_single_threshold_baseline():
    exp = _experiment("compare_single_threshold.json")
    workload = exp.materialize_workload()
    result = compare_policies(
        exp.sim_config,
        workload,
        exp.compare["policies"],
        baseline=exp.compare.get("baseline"),
    )
    row = result.row("recommended")
    ok = (
        row.energy_savings_pct is not None
        and row.energy_savings_pct >= 10.0
        and row.violation_reduction_pct is not None
        and row.violation_reduction_pct >= 40.0
    )
    _verdict(
        ok,
        f"tuned preset saves {row.energy_savings_pct:.1f}% energy (>= 10%) and "
        f"{row.violation_reduction_pct:.1f}% violations (>= 40%) vs "
        "single-threshold 0.75 on identical inputs",
    )


# ---------------------------------------------------------------------------
# 8. Determinism: identical config + seed -> byte-identical artifacts
# ---------------------------------------------------------------------------


def test_08_identical_config_and_seed_reproduce_byte_identical_csvs(tmp_path):
    config = str(CONFIG_DIR / "compare_single_threshold.json")
    run_a = tmp_path / "run_a"
    run_b = tmp_path / "run_b"
    assert cli_main(["run", "--config", config, "--out", str(run_a)]) == 0
    assert cli_main(["run", "--config", config, "--out", str(run_b)]) == 0
    gen_a = tmp_path / "gen_a"
    gen_b = tmp_path / "gen_b"
    assert cli_main(["gen-workload", "--config", config, "--out", str(gen_a)]) == 0
    assert cli_main(["gen-workload", "--config", config, "--out", str(gen_b)]) == 0
    pairs = [
        (run_a / "report.csv", run_b / "report.csv"),
        (run_a / "summary.json", run_b / "summary.json"),
        (gen_a / "trace.csv", gen_b / "trace.csv"),
        (gen_a / "meta.csv", gen_b / "meta.csv"),
    ]
    identical = all(filecmp.cmp(a, b, shallow=False) for a, b in pairs)
    _verdict(
        identical,
        "rerunning the same config and seed reproduces report.csv, summary.json "
        "and trace/meta CSVs byte for byte",
    )


# ---------------------------------------------------------------------------
# 9. Randomized invariant instances with brute-force cross-checks
# ---------------------------------------------------------------------------


def test_09_1000_randomized_instances_pass_invariant_cross_checks():
    for seed in range(INVARIANT_INSTANCES):
        run_checked_instance(seed)
    _verdict(
        True,
        f"{INVARIANT_INSTANCES} randomized small instances passed structural "
        "invariants and brute-force arbitration/energy cross-checks",
    )
