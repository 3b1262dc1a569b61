#!/usr/bin/env python3
"""dcsim benchmark: host time, throughput and memory of preset experiments.

Each workload runs one preset experiment the way its CLI command does
(``load_raw_config`` -> ``build_experiment`` -> ``materialize_workload`` ->
``run_simulation`` / ``compare_policies`` / ``run_sweep`` -> output files) on
a workload generated from ``--seed``, and checks every simulated statistic.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run is repeated with a traced policy and view (see ``tracing.py``) and
the metrics are the per-layer ones.  See ``README.md`` for every metric.

Usage, from the repository root::

    python3 perfbench/run.py --workload similarity-blocked --seed 2026 --seconds 30 --trace 0
    python3 perfbench/run.py --steadiness --report perfbench/results/seed-commit.json
    python3 perfbench/run.py --write-reference
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT = ROOT / ".perfbench_out"

#: Set-ups (config parse and workload generation) per run; setup_s takes the median.
#: The first precedes the experiment and the rest follow it, so that they fall
#: in different phases of the host's speed.
SETUP_REPS = 3

#: Steadiness mode: runs per set, and the seed of the first set's first run.
RUNS = 10
FIRST_SEED = 201

#: ``--set`` overrides that shrink a preset for the writer check (``check_writer``).
SMALL_PRESET = (
    "simulation.duration_ticks=60",
    "workload.spec.duration_ticks=60",
    "workload.spec.vm_count=12",
)

#: name -> (CLI command, preset file, --jobs)
WORKLOADS = {
    "similarity-blocked": ("run", "configs/sweep_similarity_threshold.json", 1),
    "threshold-replan": ("compare", "configs/compare_single_threshold.json", 1),
    "diurnal-sweep": ("sweep", "configs/sweep_scale_down.json", 2),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "vm_ticks_per_s": "VM-ticks/s",
    "peak_rss_mb": "MB",
}

VIEW_REPORTED = (
    "machine_rv",
    "vm_rv_on",
    "vm_window_mean",
    "vm_nominal_rv_on",
    "cpu_used_abs",
    "nominal_free",
    "running_machines",
)
ACTION_REASONS = ("scale-up", "scale-down", "replan")

PER_LAYER = {
    "config.build_s": "s",
    "workload.gen_s": "s",
    "workload.samples": "count",
    "workload.payload_mb": "MB",
    "engine.run_s": "s",
    "engine.self_s": "s",
    "engine.tick_p50_us": "us",
    "engine.tick_p99_us": "us",
    "engine.tick_samples": "count",
    "engine.vm_ticks": "count",
    "engine.migrations": "count",
    "engine.wakes": "count",
    "engine.dropped_actions": "count",
    "engine.rejected_requests": "count",
    **{f"view.{m}.{k}": u for m in VIEW_REPORTED for k, u in (("calls", "count"), ("s", "s"))},
    "view.calls": "count",
    "view.s": "s",
    "policy.allocate.calls": "count",
    "policy.allocate.s": "s",
    "policy.rebalance.s": "s",
    "policy.rebalance.self_s": "s",
    "policy.landing.calls": "count",
    "policy.actions": "count",
    **{f"policy.actions.{r}": "count" for r in ACTION_REASONS},
    "policy.standby_actions": "count",
    "policy.actions_useful_ratio": "ratio",
    "policy.scale_down_blocked": "count",
    "policy.scale_down_success_ratio": "ratio",
    "metrics.sweep_s": "s",
    "metrics.jobs": "count",
    "metrics.worker_cpu_s": "s",
    "metrics.parallel_efficiency": "ratio",
    "output.write_s": "s",
    "output.bytes": "B",
    "trace.sim_s": "s",
    "trace.untraced_sim_s": "s",
    "trace.overhead_ratio": "ratio",
    "error_rate": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure)."""


# ---------------------------------------------------------------------------
# Program under test
# ---------------------------------------------------------------------------


def import_dcsim() -> float:
    """Import the checkout's ``dcsim`` package; returns the import time."""
    src = ROOT / "src"
    if not (src / "dcsim").is_dir() or not (ROOT / "configs").is_dir():
        raise BenchError(f"no dcsim sources under {src} (or no configs/); nothing to measure")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import dcsim.config  # noqa: F401
    import dcsim.engine  # noqa: F401
    import dcsim.metrics  # noqa: F401
    import dcsim.policies  # noqa: F401

    return perf_counter() - t0


def default_seed(name: str) -> int:
    config = json.loads((ROOT / WORKLOADS[name][1]).read_text())
    return config["workload"]["spec"]["seed"]


def set_up(name: str, seed: int):
    """One set-up: parse the preset and generate the workload, timing both."""
    from dcsim.config import build_experiment, load_raw_config

    path = ROOT / WORKLOADS[name][1]
    gc.collect()
    t0 = perf_counter()
    raw = load_raw_config(str(path))
    exp = build_experiment(raw, base_dir=str(path.parent))
    t1 = perf_counter()
    workload = exp.materialize_workload(seed)
    t2 = perf_counter()
    return raw, exp, workload, t1 - t0, t2 - t1


def sweep_values(exp) -> list:
    values = exp.sweep.get("values")
    if all(isinstance(v, (int, float)) for v in values):
        values = sorted(values)
    return values


def simulation_specs(kind: str, exp) -> list[tuple[str, object]]:
    """(label, policy spec) of every simulation the experiment runs, in order."""
    if kind == "run":
        return [("run", exp.policy_spec)]
    if kind == "compare":
        specs = []
        for spec in exp.compare["policies"]:
            if isinstance(spec, dict):
                spec = dict(spec)
                label = spec.pop("label", None) or spec.get("id", "policy")
            else:
                label = spec
            specs.append((label, spec))
        return specs
    parameter = exp.sweep["parameter"]
    base = exp.policy_spec
    specs = []
    for value in sweep_values(exp):
        spec = {"id": base} if isinstance(base, str) else dict(base)
        spec[parameter] = value
        specs.append((f"{parameter}={value!r}", spec))
    return specs


def run_cli_experiment(kind: str, exp, workload, jobs: int):
    """The experiment's simulations, called as the CLI calls them."""
    from dcsim.engine import run_simulation
    from dcsim.metrics import compare_policies, run_sweep
    from dcsim.policies import build_policy

    if kind == "run":
        return run_simulation(exp.sim_config, workload, build_policy(exp.policy_spec))
    if kind == "compare":
        return compare_policies(
            exp.sim_config,
            workload,
            exp.compare["policies"],
            baseline=exp.compare.get("baseline"),
            jobs=jobs,
        )
    return run_sweep(
        exp.sim_config,
        workload,
        exp.policy_spec,
        exp.sweep["parameter"],
        values=exp.sweep.get("values"),
        jobs=jobs,
    )


def write_outputs(kind: str, raw: dict, result, out: Path) -> dict:
    """Write the files the CLI command writes; returns the summary dict.

    ``write_csv``, ``write_plot_data`` and ``effective_config_json`` are the
    program's own; the summary is built as ``dcsim.cli`` builds it, and
    ``check_writer`` requires the result to match the CLI byte for byte.
    """
    from dcsim.config import effective_config_json
    from dcsim.metrics import write_csv, write_plot_data

    (out / "effective_config.json").write_text(effective_config_json(raw))
    if kind == "run":
        write_csv(result, str(out / "report.csv"))
        summary = {
            "energy_kwh": result.total_energy_kwh,
            "sla_violations": result.sla_violation_count,
            "migrations": result.migration_count,
            "wakes": result.wake_count,
            "standbys": result.standby_count,
            "rejected_requests": result.rejected_requests,
            "dropped_actions": result.dropped_actions,
            "mean_running_machines": result.mean_running_machines,
            "peak_running_machines": result.peak_running_machines,
        }
    elif kind == "compare":
        write_csv(result, str(out / "comparison.csv"))
        write_plot_data(result, str(out / "plot_compare"))
        summary = {
            "baseline": result.baseline,
            "rows": [
                {
                    "policy": row.policy,
                    "energy_kwh": row.energy_kwh,
                    "sla_violations": row.sla_violations,
                    "migrations": row.migrations,
                    "energy_savings_pct": row.energy_savings_pct,
                    "violation_reduction_pct": row.violation_reduction_pct,
                }
                for row in result.rows
            ],
        }
    else:
        parameter = result.parameter
        write_csv(result, str(out / f"sweep_{parameter}.csv"))
        write_plot_data(result, str(out / f"plot_{parameter}"))
        summary = {
            "parameter": parameter,
            "points": [
                {
                    "value": p.value,
                    "energy_kwh": p.energy_kwh,
                    "sla_violations": p.sla_violations,
                    "mean_running_machines": p.mean_running_machines,
                    "migrations": p.migrations,
                }
                for p in result.points
            ],
            "skipped": [[value, reason] for value, reason in result.skipped],
        }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return summary


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def report_stats(report) -> dict:
    """Every simulated statistic of one run that the reference pins."""
    return {
        "energy_kwh": repr(report.total_energy_kwh),
        "sla_violations": report.sla_violation_count,
        "migrations": report.migration_count,
        "mean_running_machines": repr(report.mean_running_machines),
        "wakes": report.wake_count,
        "standbys": report.standby_count,
        "dropped_actions": report.dropped_actions,
        "rejected_requests": report.rejected_requests,
        "policy_stats": dict(sorted(report.policy_stats.items())),
    }


def row_stats(row) -> dict:
    """The statistics a sweep point or comparison row carries."""
    return {
        "energy_kwh": repr(row.energy_kwh),
        "sla_violations": row.sla_violations,
        "migrations": row.migrations,
        "mean_running_machines": repr(row.mean_running_machines),
    }


DIGEST_KEYS = ("energy_kwh", "sla_violations", "migrations", "mean_running_machines")


def sim_digest(stats: dict) -> str:
    core = {k: stats[k] for k in DIGEST_KEYS}
    return hashlib.sha256(json.dumps(core, sort_keys=True).encode()).hexdigest()[:16]


def cli_stats(kind: str, result) -> dict:
    if kind == "run":
        return {"run": report_stats(result)}
    if kind == "compare":
        return {row.policy: row_stats(row) for row in result.rows}
    return {f"{result.parameter}={p.value!r}": row_stats(p) for p in result.points}


def artifact_hashes(out: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }


def check_sims(labels, stats: dict, reference) -> list[str]:
    """Failures, one per simulation: missing (raised or skipped) or differing."""
    failures = []
    for label in labels:
        got = stats.get(label)
        if got is None:
            failures.append(f"{label}: no result (skipped or failed)")
            continue
        if reference is not None:
            want = reference["simulations"][label]
            bad = sorted(k for k in got if got[k] != want.get(k))
            if bad:
                failures.append(f"{label}: differs from reference in {', '.join(bad)}")
    return failures


def check_consistency(kind: str, result, summary: dict, out: Path, duration: int) -> list[str]:
    """Seed-independent checks of one experiment's results and files."""
    problems = []
    if json.loads((out / "summary.json").read_text()) != json.loads(json.dumps(summary)):
        problems.append("summary.json does not round-trip")
    if kind == "run":
        if len(result.running_machines) != duration or len(result.violations_per_tick) != duration:
            problems.append("report series do not cover every tick")
        if sum(result.violations_per_tick) != result.sla_violation_count:
            problems.append("per-tick violations do not sum to the total")
    if kind == "sweep":
        from dcsim.metrics import read_sweep_csv

        back = read_sweep_csv(str(out / f"sweep_{result.parameter}.csv"))
        if back.points != result.points or back.skipped != result.skipped:
            problems.append("sweep CSV does not round-trip")
    return problems


def check_writer(name: str, seed: int) -> list[str]:
    """Compare ``write_outputs`` with the real CLI on a shrunken preset.

    Runs ``dcsim.cli.main`` on the workload's preset and seed, cut down by
    ``SMALL_PRESET`` so that it takes well under a second, then the same
    experiment through the benchmark's path, and requires identical files.
    """
    from dcsim.cli import main as cli_main
    from dcsim.config import apply_overrides, build_experiment, load_raw_config

    kind, preset, _ = WORKLOADS[name]
    path = ROOT / preset
    cli_out, own_out = OUT / f"{name}.cli", OUT / f"{name}.own"
    for d in (cli_out, own_out):
        shutil.rmtree(d, ignore_errors=True)
    own_out.mkdir(parents=True)
    argv = [kind, "--config", str(path), "--out", str(cli_out), "--seed", str(seed)]
    argv += [arg for o in SMALL_PRESET for arg in ("--set", o)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        raw = apply_overrides(load_raw_config(str(path)), list(SMALL_PRESET))
        exp = build_experiment(raw, base_dir=str(path.parent))
        result = run_cli_experiment(kind, exp, exp.materialize_workload(seed), 1)
        write_outputs(kind, raw, result, own_out)
    except Exception:
        traceback.print_exc()
        return ["writer check raised"]
    if code != 0:
        return [f"dcsim CLI exited {code} on the shrunken preset"]
    cli, own = artifact_hashes(cli_out), artifact_hashes(own_out)
    bad = sorted(k for k in set(cli) | set(own) if cli.get(k) != own.get(k))
    return [f"benchmark writes different files than the CLI: {', '.join(bad)}"] if bad else []


def load_reference(name: str, seed: int):
    if not REFERENCE.exists():
        return None
    entry = json.loads(REFERENCE.read_text()).get(name)
    return entry if entry is not None and entry["seed"] == seed else None


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------


def cpu_seconds(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def untraced_experiment(name: str, raw, exp, workload, reference, log) -> dict:
    """Run and check one repetition of the workload's experiment."""
    kind, _, jobs = WORKLOADS[name]
    labels = [label for label, _ in simulation_specs(kind, exp)]
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    who = resource.RUSAGE_CHILDREN if jobs > 1 else resource.RUSAGE_SELF
    gc.collect()
    cpu0 = cpu_seconds(who)
    t0 = perf_counter()
    try:
        result = run_cli_experiment(kind, exp, workload, jobs)
    except Exception:  # a failing simulation is a benchmark outcome, not a crash
        traceback.print_exc()
        sim_s = perf_counter() - t0
        log(f"{name}: experiment raised; {len(labels)} simulations failed")
        return {"sim_s": sim_s, "out_s": 0.0, "cpu_s": 0.0, "stats": {}, "failures": labels,
                "labels": labels, "bytes": 0}
    sim_s = perf_counter() - t0
    cpu_s = cpu_seconds(who) - cpu0
    t1 = perf_counter()
    summary = write_outputs(kind, raw, result, out)
    out_s = perf_counter() - t1

    stats = cli_stats(kind, result)
    failures = check_sims(labels, stats, reference)
    problems = check_consistency(kind, result, summary, out, exp.sim_config.duration_ticks)
    hashes = artifact_hashes(out)
    if reference is not None and hashes != reference["artifacts"]:
        bad = sorted(k for k in set(hashes) | set(reference["artifacts"])
                     if hashes.get(k) != reference["artifacts"].get(k))
        problems.append(f"artifacts differ from reference: {', '.join(bad)}")
    if problems:  # wrong output files fail every simulation behind them
        failures = [f"{label}: {'; '.join(problems)}" for label in labels]
    for msg in failures:
        log(f"FAIL {name} {msg}")
    return {
        "sim_s": sim_s,
        "out_s": out_s,
        "cpu_s": cpu_s,
        "stats": stats,
        "failures": failures,
        "labels": labels,
        "hashes": hashes,
        "bytes": sum(p.stat().st_size for p in out.iterdir()),
    }


def traced_simulations(name: str, exp, workload, reference, untraced: dict, log):
    """Run each simulation with a traced policy; checks its statistics."""
    from dcsim.engine import run_simulation
    from dcsim.policies import build_policy
    from tracing import Trace, TracedPolicy

    kind = WORKLOADS[name][0]
    sims, failed = [], set()
    for label, spec in simulation_specs(kind, exp):
        trace = Trace()
        policy = TracedPolicy(build_policy(spec), trace)
        gc.collect()
        t0 = perf_counter()
        try:
            report = run_simulation(exp.sim_config, workload, policy)
        except Exception:
            traceback.print_exc()
            log(f"FAIL {name} traced {label}: raised")
            failed.add(label)
            continue
        run_s = perf_counter() - t0
        stats = report_stats(report)
        failures = check_sims([label], {label: stats}, reference)
        plain = untraced["stats"].get(label)
        if plain is not None and any(stats[k] != v for k, v in plain.items()):
            failures.append(f"{label}: traced statistics differ from the untraced run")
        for msg in failures:
            log(f"FAIL {name} traced {msg}")
            failed.add(label)
        sims.append((label, trace, report, run_s))
    return sims, len(failed)


def overhead_times(name: str, exp, workload, untraced: dict, sims) -> tuple[float, float]:
    """Traced and untraced host seconds of the same simulations, both in-process."""
    from dcsim.engine import run_simulation
    from dcsim.policies import build_policy
    from tracing import Trace, TracedPolicy

    kind, _, jobs = WORKLOADS[name]
    if jobs == 1:
        return sum(s for _, _, _, s in sims), untraced["sim_s"]
    # The untraced points ran in pool workers.  Time the last point, which
    # has the most policy work, in-process: traced (the run in ``sims``),
    # untraced twice, traced again, so that a drift of the host's speed
    # weighs on both sides alike.  Returns the mean of each side.
    label, spec = simulation_specs(kind, exp)[-1]
    traced = [s for lbl, _, _, s in sims if lbl == label]
    plain = []
    for wrap in (False, False, True):
        policy = build_policy(spec)
        if wrap:
            policy = TracedPolicy(policy, Trace())
        gc.collect()
        t0 = perf_counter()
        run_simulation(exp.sim_config, workload, policy)
        (traced if wrap else plain).append(perf_counter() - t0)
    return statistics.mean(traced), statistics.mean(plain)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(
    name, samples, payload_mb, config_s, gen_s, untraced, sims, overhead, failed, attempted
):
    from tracing import standby_actions

    jobs = WORKLOADS[name][2]
    m = {
        "config.build_s": statistics.median(config_s),
        "workload.gen_s": statistics.median(gen_s),
        "workload.samples": samples,
        "workload.payload_mb": payload_mb,
    }
    traces = [t for _, t, _, _ in sims]
    reports = [r for _, _, r, _ in sims]
    run_s = sum(s for _, _, _, s in sims)
    intervals = [x for t in traces for x in t.tick_intervals_us()]
    m["engine.run_s"] = run_s
    m["engine.self_s"] = run_s - sum(t.policy_s() for t in traces)
    m["engine.tick_p50_us"] = statistics.median(intervals) if intervals else 0.0
    m["engine.tick_p99_us"] = quantile(intervals, 99) if len(intervals) > 1 else 0.0
    m["engine.tick_samples"] = len(intervals)
    m["engine.vm_ticks"] = sum(t.vm_ticks for t in traces)
    m["engine.migrations"] = sum(r.migration_count for r in reports)
    m["engine.wakes"] = sum(r.wake_count for r in reports)
    m["engine.dropped_actions"] = sum(r.dropped_actions for r in reports)
    m["engine.rejected_requests"] = sum(r.rejected_requests for r in reports)
    for method in VIEW_REPORTED:
        m[f"view.{method}.calls"] = sum(t.view[method][0] for t in traces)
        m[f"view.{method}.s"] = sum(t.view[method][1] for t in traces)
    m["view.calls"] = sum(c[0] for t in traces for c in t.view.values())
    m["view.s"] = sum(t.view_s[0] for t in traces)
    m["policy.allocate.calls"] = sum(t.allocate[0] for t in traces)
    m["policy.allocate.s"] = sum(t.allocate[1] for t in traces)
    m["policy.rebalance.s"] = sum(t.rebalance[1] for t in traces)
    m["policy.rebalance.self_s"] = m["policy.rebalance.s"] - sum(t.rebalance_view_s for t in traces)
    m["policy.landing.calls"] = sum(t.landing[0] for t in traces)
    actions = sum(sum(t.actions.values()) for t in traces)
    m["policy.actions"] = actions
    for reason in ACTION_REASONS:
        m[f"policy.actions.{reason}"] = sum(
            n for t in traces for (_, r), n in t.actions.items() if r == reason
        )
    standbys = sum(standby_actions(t) for t in traces)
    blocked = sum(r.policy_stats.get("scale_down_blocked", 0) for r in reports)
    m["policy.standby_actions"] = standbys
    m["policy.actions_useful_ratio"] = (
        1.0 - m["engine.dropped_actions"] / actions if actions else 0.0
    )
    m["policy.scale_down_blocked"] = blocked
    m["policy.scale_down_success_ratio"] = (
        standbys / (standbys + blocked) if standbys + blocked else 0.0
    )
    m["metrics.sweep_s"] = untraced["sim_s"]
    m["metrics.jobs"] = jobs
    m["metrics.worker_cpu_s"] = untraced["cpu_s"]
    m["metrics.parallel_efficiency"] = untraced["cpu_s"] / (jobs * untraced["sim_s"])
    m["output.write_s"] = untraced["out_s"]
    m["output.bytes"] = untraced["bytes"]
    traced_s, plain_s = overhead
    m["trace.sim_s"] = traced_s
    m["trace.untraced_sim_s"] = plain_s
    m["trace.overhead_ratio"] = traced_s / plain_s
    m["error_rate"] = failed / attempted
    return m


def peak_rss_mb(jobs: int) -> float:
    """Peak RSS of the run's largest process: this one or, with a pool, a worker.

    Forked workers share pages with this process, so adding their peaks to
    this one would count the shared memory more than once.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs > 1 else 0
    return max(own, workers) * 1024 / 1e6


def bench(name: str, seed, seconds: float, traced: bool) -> dict:
    def log(msg: str) -> None:
        print(msg, flush=True)

    import_s = import_dcsim()
    if seed is None:
        seed = default_seed(name)
    kind, _, jobs = WORKLOADS[name]
    reference = load_reference(name, seed)
    log(f"workload={name} command={kind} jobs={jobs} seed={seed} "
        f"reference={'yes' if reference else 'no (held-out seed: compare sim digests)'}")
    raw, exp, workload, c, g = set_up(name, seed)
    config_s, gen_s = [c], [g]
    samples = sum(len(req.trace) for req in workload)
    n_sims = len(simulation_specs(kind, exp))

    reps = []
    start = perf_counter()
    while True:
        rep = untraced_experiment(name, raw, exp, workload, reference, log)
        reps.append(rep)
        elapsed = perf_counter() - start
        if traced or elapsed + rep["sim_s"] + rep["out_s"] > seconds:
            break
    attempted = sum(len(r["labels"]) for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    first = reps[0]
    for label in first["labels"]:
        if label in first["stats"]:
            log(f"sim {label} digest={sim_digest(first['stats'][label])}")
    log("artifacts " + " ".join(f"{k}={v[:16]}" for k, v in first.get("hashes", {}).items()))

    if traced:
        sims, trace_failed = traced_simulations(name, exp, workload, reference, first, log)
        attempted += n_sims
        failed += trace_failed
        for label, trace, report, run_s in sims:
            log(
                f"trace {label}: run_s={run_s:.3f} migrations={report.migration_count} "
                f"vm_ticks={trace.vm_ticks} policy_stats={report.policy_stats} "
                + " ".join(f"view.{k}.calls={c[0]}" for k, c in trace.view.items() if c[0])
            )
        overhead = overhead_times(name, exp, workload, first, sims)
    else:
        rss_mb = peak_rss_mb(jobs)  # the experiment's peak, before any pickling below
    # The pickled workload is what run_sweep ships with every task.  Taken after
    # the experiment, it also shows that simulating left the inputs unchanged.
    payload = pickle.dumps(workload)
    payload_mb = len(payload) / 1e6
    inputs = {hashlib.sha256(payload).hexdigest()}
    raw = exp = workload = payload = None
    for _ in range(SETUP_REPS - 1):
        *_, workload, c, g = set_up(name, seed)
        config_s.append(c)
        gen_s.append(g)
        inputs.add(hashlib.sha256(pickle.dumps(workload)).hexdigest())
        workload = None
    if len(inputs) > 1:  # the same seed must give the same inputs
        log(f"FAIL {name}: seed {seed} gave {len(inputs)} different workloads over "
            f"{SETUP_REPS} set-ups, or simulating changed its input")
        failed = attempted
    setup_s = import_s + statistics.median(c + g for c, g in zip(config_s, gen_s))
    writer = check_writer(name, seed)
    for msg in writer:
        log(f"FAIL {name} {msg}")
    if writer:  # the files checked above are not the CLI's
        failed = attempted

    if traced:
        metrics = layer_metrics(
            name, samples, payload_mb, config_s, gen_s, first, sims, overhead, failed, attempted
        )
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": setup_s + statistics.median(r["sim_s"] + r["out_s"] for r in reps),
            "vm_ticks_per_s": statistics.median(samples * n_sims / r["sim_s"] for r in reps),
            "peak_rss_mb": rss_mb,
        }
        units = END_TO_END
        log(f"repetitions={len(reps)} simulations_per_repetition={n_sims} samples={samples}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


# ---------------------------------------------------------------------------
# Reference and steadiness modes
# ---------------------------------------------------------------------------


def write_reference() -> None:
    """Record default-seed statistics and artifact hashes of every workload."""
    import_dcsim()
    from dcsim.engine import run_simulation
    from dcsim.policies import build_policy

    reference = {}
    for name, (kind, _, _) in WORKLOADS.items():
        seed = default_seed(name)
        raw, exp, workload, _, _ = set_up(name, seed)
        rep = untraced_experiment(name, raw, exp, workload, None, print)
        if rep["failures"]:
            raise SystemExit(f"{name}: cannot record a reference from a failing run")
        sims = {}
        for label, spec in simulation_specs(kind, exp):
            sims[label] = report_stats(run_simulation(exp.sim_config, workload, build_policy(spec)))
            if any(sims[label][k] != v for k, v in rep["stats"][label].items()):
                raise SystemExit(f"{name}: {label} differs between CLI path and direct run")
        reference[name] = {"seed": seed, "simulations": sims, "artifacts": rep["hashes"]}
        print(f"{name}: recorded {len(sims)} simulations", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


def invoke(name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    result["seed"] = seed
    return result


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def steadiness(args) -> None:
    """Two independent sets of runs; do their medians agree within the bounds?"""
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench_spec["run_seconds"]
    e2e = {m["name"]: m for m in bench_spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    report = {"runs_per_set": RUNS, "first_seed": FIRST_SEED, "seconds": seconds, "workloads": {}}
    sets = {name: [] for name in names}
    for s in range(2):
        # Workloads take turns, so each one's runs sample the whole set's span.
        runs = {name: [] for name in names}
        for seed in range(FIRST_SEED + s * RUNS, FIRST_SEED + (s + 1) * RUNS):
            for name in names:
                run = invoke(name, seed, seconds, 0)
                runs[name].append(run)
                vals = {k: round(v["value"], 4) for k, v in run["metrics"].items()}
                print(f"set {s} {name} seed={seed} elapsed={run['elapsed_s']:.1f}s "
                      f"correct={run['correct']} {vals}", flush=True)
        for name in names:
            traced = invoke(name, default_seed(name), seconds, 1)
            print(f"set {s} {name} traced elapsed={traced['elapsed_s']:.1f}s "
                  f"correct={traced['correct']}", flush=True)
            sets[name].append({"runs": runs[name], "traced": traced})
    for name in names:
        entry = {"sets": [], "agree": {}}
        for st in sets[name]:
            stats = {}
            for metric in e2e:
                values = [r["metrics"][metric]["value"] for r in st["runs"]]
                stats[metric] = {"values": values, **spread(values)}
            entry["sets"].append({
                "seeds": [r["seed"] for r in st["runs"]],
                "all_correct": all(r["correct"] for r in st["runs"]),
                "elapsed_s": [round(r["elapsed_s"], 2) for r in st["runs"]],
                "metrics": stats,
                "traced": st["traced"],
            })
        a, b = entry["sets"][0]["metrics"], entry["sets"][1]["metrics"]
        for metric, spec in e2e.items():
            change = (b[metric]["median"] - a[metric]["median"]) / a[metric]["median"]
            worse = change if spec["better"] == "lower" else -change
            entry["agree"][metric] = {"change": change, "bound": spec["bound"],
                                      "within_bound": abs(change) <= spec["bound"],
                                      "worse_within_bound": worse <= spec["bound"]}
        counts = [{k: v["value"] for k, v in st["traced"]["metrics"].items() if v["unit"] == "count"}
                  for st in sets[name]]
        entry["counts_identical"] = counts[0] == counts[1]
        report["workloads"][name] = entry
        for i, st in enumerate(entry["sets"]):
            print(f"{name} set {i}: " + ", ".join(
                f"{k} median={v['median']:.4g} spread={v['spread']:.4f}"
                for k, v in st["metrics"].items()))
        for metric, agree in entry["agree"].items():
            print(f"{name} {metric}: change={agree['change']:+.4f} bound={agree['bound']} "
                  f"within={agree['within_bound']}")
        print(f"{name} exact counts identical across sets: {entry['counts_identical']}")
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="workload seed (default: the preset's)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="repeat the experiment while another repetition fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record default-seed statistics and artifact hashes")
    parser.add_argument("--steadiness", action="store_true",
                        help=f"run two sets of {RUNS} runs, from seed {FIRST_SEED}, and compare them")
    parser.add_argument("--workloads", help="steadiness: comma-separated subset")
    parser.add_argument("--report", help="steadiness: write the report JSON here")
    args = parser.parse_args(argv)
    try:
        if args.write_reference:
            write_reference()
            return 0
        if args.steadiness:
            steadiness(args)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = bench(args.workload, args.seed, args.seconds or 0.0, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
