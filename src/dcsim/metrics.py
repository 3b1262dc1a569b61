"""Experiment harness: parameter sweeps, policy comparisons and file output.

Every sweep point runs one full simulation against the *same* workload, so
curves reflect only the swept parameter.  With ``jobs`` > 1 the points run
in a process pool of at most one worker per point; the simulation config
and the workload reach each worker once, when it starts, and workers treat
both as read-only.

This module owns every artifact format and file name (see
:func:`write_artifacts`) and the CLI's console lines.  The sweep and
comparison columns are the fields of :class:`SweepPoint` and
:class:`ComparisonRow`, in order.  CSV output carries a versioned schema
comment and uses round-trip float formatting; writing, reading and
re-writing a file reproduces it byte for byte.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import re
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Optional, Union, get_type_hints

from .engine import SimulationConfig, SimulationReport, run_simulation
from .model import checked, integer
from .policies import build_policy
from .workload import VmRequest

log = logging.getLogger("dcsim.metrics")

SWEEP_SCHEMA = "dcsim sweep v1"
COMPARISON_SCHEMA = "dcsim comparison v1"
RUN_SCHEMA = "dcsim run v1"


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """Aggregates of one simulation at one parameter value; the fields are the CSV columns."""

    value: Union[int, float, str]
    energy_kwh: float
    sla_violations: int
    mean_running_machines: float
    migrations: int


@dataclass(slots=True)
class SweepResult:
    """Outcome of sweeping one parameter over a grid."""

    parameter: str
    points: list[SweepPoint] = field(default_factory=list)
    skipped: list[tuple[Union[int, float, str], str]] = field(default_factory=list)

    def values(self) -> list[Union[int, float, str]]:
        return [p.value for p in self.points]


@dataclass(frozen=True, slots=True)
class ComparisonRow:
    """One policy's aggregates and savings against the baseline; the fields are the CSV columns."""

    policy: str
    energy_kwh: float
    sla_violations: int
    migrations: int
    mean_running_machines: float
    energy_savings_pct: Optional[float]
    violation_reduction_pct: Optional[float]


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepPoint))
COMPARISON_COLUMNS = tuple(f.name for f in fields(ComparisonRow))


@dataclass(slots=True)
class ComparisonResult:
    baseline: str
    rows: list[ComparisonRow] = field(default_factory=list)

    def row(self, policy: str) -> ComparisonRow:
        for row in self.rows:
            if row.policy == policy:
                return row
        raise KeyError(policy)


def _run_point(
    sim_config: SimulationConfig,
    workload: list[VmRequest],
    policy_spec: Union[dict[str, Any], str],
) -> SimulationReport:
    # Policies are stateful; every run gets a freshly built instance.
    return run_simulation(sim_config, workload, build_policy(policy_spec))


# A pool worker's (sim_config, workload), set once by _init_worker.
_worker_inputs: Optional[tuple[SimulationConfig, list[VmRequest]]] = None


def _init_worker(sim_config: SimulationConfig, workload: list[VmRequest]) -> None:
    global _worker_inputs
    _worker_inputs = (sim_config, workload)


def _run_worker_point(policy_spec: Union[dict[str, Any], str]) -> SimulationReport:
    return _run_point(*_worker_inputs, policy_spec)


def _run_points(
    sim_config: SimulationConfig,
    workload: list[VmRequest],
    policy_specs: list[Union[dict[str, Any], str]],
    jobs: int,
) -> list[SimulationReport]:
    """One report per policy spec, in order; in a process pool when ``jobs`` > 1.

    The pool has ``min(jobs, len(policy_specs))`` workers.  Each receives
    ``sim_config`` and ``workload`` once, through the pool initializer:
    inherited under the ``fork`` start method, pickled once per worker under
    ``spawn`` or ``forkserver``.  Each task then carries only its policy
    spec.  Workers treat both inputs as read-only, so every point sees the
    same ones.  A ``jobs`` below 1 is a ``ValueError``, raised before any run.
    """
    workers = min(checked(integer(1), "jobs", jobs), len(policy_specs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only to start a pool
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(sim_config, workload)
        ) as pool:
            return list(pool.map(_run_worker_point, policy_specs))
    return [_run_point(sim_config, workload, spec) for spec in policy_specs]


def _cell(value: Any, what: str) -> Any:
    """``value`` if it fits a CSV cell: a non-bool number, or a string with no comma or space."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number or isinstance(value, str) and not re.search(r"[,\s]", value):
        return value
    raise ValueError(f"{what} {value!r} must be a number or a string with no comma or whitespace")


def run_sweep(
    sim_config: SimulationConfig,
    workload: list[VmRequest],
    policy_spec: Union[dict[str, Any], str],
    parameter: str,
    values: list,
    jobs: int = 1,
) -> SweepResult:
    """Run one simulation per parameter value against a shared workload.

    Each value is set as the policy's ``parameter``, and must fit a CSV cell
    (see ``_cell``) and be unique: two values that are equal, as ``0`` and
    ``-0.0`` are, or that print alike, as two NaNs do, would run one point
    twice.  Any other value is a ``ValueError`` raised before a simulation
    runs.  Numeric values run in ascending order, a NaN last.  Points whose
    policy cannot be built (e.g. a ``u_up`` too close to ``u_down``) are
    skipped with a warning and recorded in ``result.skipped``.  An error
    raised while a point's simulation runs, such as an ``EngineError`` from
    a faulty policy decision, is not a skip: it propagates to the caller.
    """
    if not values:
        raise ValueError("sweep needs at least one value")
    values = [_cell(v, f"{parameter} sweep value") for v in values]
    if any(a == b or repr(a) == repr(b) for i, a in enumerate(values) for b in values[:i]):
        raise ValueError("sweep values must be unique")
    if all(isinstance(v, (int, float)) for v in values):
        # ``sorted`` cannot order values around a NaN (``v != v``); it goes last.
        values = sorted(values, key=lambda v: (v != v, v))

    base = {"id": policy_spec} if isinstance(policy_spec, str) else policy_spec
    result = SweepResult(parameter=parameter)
    kept = []
    specs = []
    for v in values:
        spec = {**base, parameter: v}
        try:
            build_policy(spec)
        except ValueError as exc:
            log.warning("skipping %s=%r: %s", parameter, v, exc)
            result.skipped.append((v, str(exc)))
            continue
        kept.append(v)
        specs.append(spec)
    for v, report in zip(kept, _run_points(sim_config, workload, specs, jobs)):
        result.points.append(SweepPoint(value=v, **_row_stats(report)))
    return result


def compare_policies(
    sim_config: SimulationConfig,
    workload: list[VmRequest],
    policy_specs: list[Union[dict[str, Any], str]],
    baseline: Optional[str] = None,
    jobs: int = 1,
) -> ComparisonResult:
    """Run each policy on the same inputs and report savings vs a baseline.

    Savings are ``(baseline - ours) / baseline * 100``; a policy compared
    against itself reports 0.  When the baseline count is zero the
    percentage is undefined and reported as ``None``.  An error raised by
    any simulation, such as an ``EngineError``, propagates to the caller.
    A label must fit a CSV cell (see ``_cell``), or the CSV and the plot
    file could not tell its cells apart.  Every spec is built once before
    any simulation runs, so a policy that cannot be built is a
    ``ValueError`` that wastes no run.
    """
    names = []
    specs = []
    for spec in policy_specs:
        if isinstance(spec, dict):
            spec = dict(spec)
            label = spec.pop("label", None) or spec.get("id", "policy")
        else:
            label = spec
        if label in names:
            raise ValueError(f"duplicate policy label {label!r}; add distinct 'label' keys")
        names.append(_cell(label, "policy label"))
        build_policy(spec)
        specs.append(spec)
    if baseline is None:
        baseline = names[0]
    if baseline not in names:
        raise ValueError(f"baseline {baseline!r} is not among the compared policies")

    by_name = dict(zip(names, _run_points(sim_config, workload, specs, jobs)))

    base = by_name[baseline]
    result = ComparisonResult(baseline=baseline)
    for name in names:
        report = by_name[name]
        result.rows.append(
            ComparisonRow(
                policy=name,
                **_row_stats(report),
                energy_savings_pct=_savings(base.total_energy_kwh, report.total_energy_kwh),
                violation_reduction_pct=_savings(
                    float(base.sla_violation_count), float(report.sla_violation_count)
                ),
            )
        )
    return result


def _row_stats(report: SimulationReport) -> dict[str, Any]:
    """The four statistics of a run that a sweep point or comparison row carries."""
    return {
        "energy_kwh": report.total_energy_kwh,
        "sla_violations": report.sla_violation_count,
        "mean_running_machines": report.mean_running_machines,
        "migrations": report.migration_count,
    }


def _savings(baseline: float, ours: float) -> Optional[float]:
    if baseline == 0.0:
        return 0.0 if ours == 0.0 else None
    return (baseline - ours) / baseline * 100.0


# ---------------------------------------------------------------------------
# File output
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _cells(row, columns: tuple[str, ...], sep: str) -> str:
    return sep.join(_fmt(getattr(row, column)) for column in columns)


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_csv(result, path: str) -> None:
    """Write a sweep, comparison or run report as versioned CSV."""
    if isinstance(result, SweepResult):
        lines = [f"# {SWEEP_SCHEMA}", f"# parameter: {result.parameter}"]
        for value, reason in result.skipped:
            lines.append(f"# skipped: {_fmt(value)}: {reason}")
        lines.append(",".join(SWEEP_COLUMNS))
        lines += [_cells(p, SWEEP_COLUMNS, ",") for p in result.points]
    elif isinstance(result, ComparisonResult):
        lines = [f"# {COMPARISON_SCHEMA}", f"# baseline: {result.baseline}"]
        lines.append(",".join(COMPARISON_COLUMNS))
        lines += [_cells(row, COMPARISON_COLUMNS, ",") for row in result.rows]
    elif isinstance(result, SimulationReport):
        lines = [f"# {RUN_SCHEMA}"]
        lines.append("tick,running_machines,total_power_watts,sla_violations")
        for tick in range(len(result.running_machines)):
            lines.append(
                f"{tick},{result.running_machines[tick]},"
                f"{_fmt(result.total_power_watts[tick])},{result.violations_per_tick[tick]}"
            )
    else:
        raise TypeError(f"cannot serialize {type(result).__name__} to CSV")
    _write_lines(path, lines)


def read_sweep_csv(path: str) -> SweepResult:
    """Read a sweep CSV written by :func:`write_csv` (exact round trip)."""
    with open(path, newline="") as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] != f"# {SWEEP_SCHEMA}":
        raise ValueError(f"{path}: not a {SWEEP_SCHEMA} file")
    if len(lines) < 2 or not lines[1].startswith("# parameter: "):
        raise ValueError(f"{path}: missing parameter comment")
    result = SweepResult(parameter=lines[1][len("# parameter: "):])
    body_start = 2
    for line in lines[2:]:
        if not line.startswith("# skipped: "):
            break
        body_start += 1
        payload = line[len("# skipped: "):]
        value_raw, _, reason = payload.partition(": ")
        result.skipped.append((_parse_value(value_raw), reason))
    header = lines[body_start] if body_start < len(lines) else ""
    if header != ",".join(SWEEP_COLUMNS):
        raise ValueError(f"{path}: unexpected header {header!r}")
    for line in lines[body_start + 1 :]:
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(SWEEP_COLUMNS):
            raise ValueError(f"{path}: malformed row {line!r}")
        result.points.append(
            SweepPoint(*(parse(part) for parse, part in zip(_SWEEP_PARSERS, parts)))
        )
    return result


def _parse_value(raw: str) -> Union[int, float, str]:
    """A value cell as an int, else a float, else the string itself.

    A float's ``repr`` always holds ``.``, ``e``, ``inf`` or ``nan``, so no
    float written by ``write_csv`` reads back as an int.
    """
    for parse in (int, float):
        try:
            return parse(raw)
        except ValueError:
            pass
    return raw


# Each sweep column's parser: its field's type when that is int or float.
_SWEEP_PARSERS = tuple(
    t if t in (int, float) else _parse_value
    for t in map(get_type_hints(SweepPoint).get, SWEEP_COLUMNS)
)

# The sweep plot series: (file suffix, column).
_SWEEP_SERIES = (
    ("energy", "energy_kwh"),
    ("violations", "sla_violations"),
    ("machines", "mean_running_machines"),
)
_COMPARISON_PLOT_COLUMNS = ("policy", "energy_kwh", "sla_violations")


def write_plot_data(result, path_prefix: str) -> list[str]:
    """Write gnuplot-style ``x y`` series files; returns the paths written."""
    if isinstance(result, SweepResult):
        paths = []
        for suffix, column in _SWEEP_SERIES:
            path = f"{path_prefix}_{suffix}.dat"
            lines = [f"# x: {result.parameter}", f"# y: {column}"]
            lines += [_cells(p, ("value", column), " ") for p in result.points]
            _write_lines(path, lines)
            paths.append(path)
        return paths
    if isinstance(result, ComparisonResult):
        path = f"{path_prefix}_policies.dat"
        lines = ["# columns: " + " ".join(_COMPARISON_PLOT_COLUMNS)]
        lines += [_cells(row, _COMPARISON_PLOT_COLUMNS, " ") for row in result.rows]
        _write_lines(path, lines)
        return [path]
    raise TypeError(f"cannot write plot data for {type(result).__name__}")


def _summary(result) -> dict[str, Any]:
    """The ``summary.json`` document of a run report, sweep or comparison."""
    if isinstance(result, SimulationReport):
        return {
            **_row_stats(result),
            "wakes": result.wake_count,
            "standbys": result.standby_count,
            "rejected_requests": result.rejected_requests,
            "dropped_actions": result.dropped_actions,
            "peak_running_machines": result.peak_running_machines,
        }
    if isinstance(result, SweepResult):
        return {
            "parameter": result.parameter,
            "points": [asdict(p) for p in result.points],
            "skipped": [[value, reason] for value, reason in result.skipped],
        }
    if isinstance(result, ComparisonResult):
        rows = [asdict(row) for row in result.rows]
        for row in rows:
            del row["mean_running_machines"]
        return {"baseline": result.baseline, "rows": rows}
    raise TypeError(f"cannot summarize {type(result).__name__}")


def write_summary(result, path: str) -> None:
    """Write ``result``'s ``summary.json``; comparison rows omit ``mean_running_machines``."""
    with open(path, "w") as fh:
        json.dump(_summary(result), fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_artifacts(result, out_dir: str) -> None:
    """Write ``summary.json`` and the CSV and plot files of ``result`` into directory ``out_dir``.

    These are ``report.csv`` for a run report, ``sweep_<parameter>.csv`` and
    ``plot_<parameter>_*.dat`` for a sweep, ``comparison.csv`` and ``plot_compare_policies.dat``.
    """
    path = functools.partial(os.path.join, out_dir)
    if isinstance(result, SweepResult):
        write_csv(result, path(f"sweep_{result.parameter}.csv"))
        write_plot_data(result, path(f"plot_{result.parameter}"))
    elif isinstance(result, ComparisonResult):
        write_csv(result, path("comparison.csv"))
        write_plot_data(result, path("plot_compare"))
    else:
        write_csv(result, path("report.csv"))
    write_summary(result, path("summary.json"))


def _pct(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.2f}%"


def console_lines(result) -> list[str]:
    """The lines the CLI prints for a run report, sweep or comparison."""
    if isinstance(result, SimulationReport):
        return [f"{key}={value}" for key, value in sorted(_summary(result).items())]
    if isinstance(result, SweepResult):
        lines = [
            f"{result.parameter}={p.value} energy_kwh={p.energy_kwh:.6f} "
            f"sla_violations={p.sla_violations} mean_running={p.mean_running_machines:.3f}"
            for p in result.points
        ]
        return lines + [f"{result.parameter}={value} skipped" for value, _ in result.skipped]
    if isinstance(result, ComparisonResult):
        return [
            f"{row.policy}: energy_kwh={row.energy_kwh:.6f} sla_violations={row.sla_violations} "
            f"energy_savings={_pct(row.energy_savings_pct)} "
            f"violation_reduction={_pct(row.violation_reduction_pct)}"
            for row in result.rows
        ]
    raise TypeError(f"cannot describe {type(result).__name__}")
