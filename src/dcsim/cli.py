"""Command-line interface.

Subcommands: ``run`` (one simulation), ``sweep`` (one simulation per
parameter value), ``compare`` (several policies on identical inputs) and
``gen-workload`` (materialize a workload spec into trace files).  Every
command echoes the fully resolved configuration into its output directory,
so results are reproducible from their own metadata.

Exit codes: 0 on success, 2 for configuration errors, 3 for I/O errors,
4 for engine errors (a policy decision the engine cannot carry out).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .config import (
    ConfigError,
    Experiment,
    apply_overrides,
    build_experiment,
    effective_config_json,
    load_raw_config,
)
from .engine import EngineError, run_simulation
from .metrics import (
    compare_policies,
    console_lines,
    run_sweep,
    write_csv,
    write_plot_data,
    write_summary,
)
from .policies import build_policy
from .workload import save_trace_files

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_ENGINE = 4


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment file (JSON)")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config value by dotted path (repeatable)",
    )
    parser.add_argument("--out", help="output directory (default: config output_dir or 'out')")
    parser.add_argument("--seed", type=int, help="override the workload generator seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dcsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one simulation")
    _add_common(run_p)

    sweep_p = sub.add_parser("sweep", help="run the sweep described by the config")
    _add_common(sweep_p)
    sweep_p.add_argument("--jobs", type=int, default=1, help="parallel sweep processes")

    cmp_p = sub.add_parser("compare", help="compare the configured policies")
    _add_common(cmp_p)
    cmp_p.add_argument("--jobs", type=int, default=1, help="parallel comparison processes")

    gen_p = sub.add_parser("gen-workload", help="materialize a workload spec to trace files")
    _add_common(gen_p)
    return parser


def _prepare(args) -> tuple[Experiment, str]:
    raw = load_raw_config(args.config)
    apply_overrides(raw, args.overrides)
    experiment = build_experiment(raw, base_dir=os.path.dirname(os.path.abspath(args.config)))
    out_dir = args.out or experiment.output_dir or "out"
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "effective_config.json"), "w") as fh:
        fh.write(effective_config_json(raw))
    return experiment, out_dir


def _summarize(result, out_dir: str) -> None:
    write_summary(result, os.path.join(out_dir, "summary.json"))
    for line in console_lines(result):
        print(line)


def cmd_run(args) -> int:
    experiment, out_dir = _prepare(args)
    workload = experiment.materialize_workload(args.seed)
    policy = build_policy(experiment.policy_spec)
    report = run_simulation(experiment.sim_config, workload, policy)
    write_csv(report, os.path.join(out_dir, "report.csv"))
    print(f"policy={policy.name}")
    _summarize(report, out_dir)
    return EXIT_OK


def cmd_sweep(args) -> int:
    experiment, out_dir = _prepare(args)
    if experiment.sweep is None:
        raise ConfigError("config has no 'sweep' section")
    workload = experiment.materialize_workload(args.seed)
    parameter = experiment.sweep["parameter"]
    result = run_sweep(
        experiment.sim_config,
        workload,
        experiment.policy_spec,
        parameter,
        values=experiment.sweep["values"],
        jobs=args.jobs,
    )
    if not result.points:
        raise ConfigError(
            "sweep: every point was skipped: "
            + "; ".join(f"{parameter}={value}: {reason}" for value, reason in result.skipped)
        )
    write_csv(result, os.path.join(out_dir, f"sweep_{parameter}.csv"))
    write_plot_data(result, os.path.join(out_dir, f"plot_{parameter}"))
    _summarize(result, out_dir)
    return EXIT_OK


def cmd_compare(args) -> int:
    experiment, out_dir = _prepare(args)
    if experiment.compare is None:
        raise ConfigError("config has no 'compare' section")
    workload = experiment.materialize_workload(args.seed)
    result = compare_policies(
        experiment.sim_config,
        workload,
        experiment.compare["policies"],
        baseline=experiment.compare.get("baseline"),
        jobs=args.jobs,
    )
    write_csv(result, os.path.join(out_dir, "comparison.csv"))
    write_plot_data(result, os.path.join(out_dir, "plot_compare"))
    _summarize(result, out_dir)
    return EXIT_OK


def cmd_gen_workload(args) -> int:
    experiment, out_dir = _prepare(args)
    if "spec" not in experiment.workload_section:
        raise ConfigError("gen-workload requires a workload.spec section")
    workload = experiment.materialize_workload(args.seed)
    trace_path = os.path.join(out_dir, "trace.csv")
    meta_path = os.path.join(out_dir, "meta.csv")
    save_trace_files(workload, trace_path, meta_path)
    samples = sum(len(req.trace) for req in workload)
    print(f"vms={len(workload)} samples={samples}")
    print(f"trace={trace_path}")
    print(f"meta={meta_path}")
    return EXIT_OK


_COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "gen-workload": cmd_gen_workload,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
