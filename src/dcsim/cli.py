"""Command-line interface.

Subcommands: ``run`` (one simulation), ``sweep`` (one simulation per
parameter value), ``compare`` (several policies on identical inputs) and
``gen-workload`` (materialize a workload spec into trace files).  A command
writes its output directory only once its result exists: the fully resolved
configuration, echoed so that results are reproducible from their own
metadata, and the result's files.  A failed command writes nothing.

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
from .metrics import compare_policies, console_lines, run_sweep, write_artifacts
from .policies import build_policy
from .workload import save_trace_files

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_ENGINE = 4


#: Each subcommand and its help; ``sweep`` and ``compare`` also take ``--jobs``.
_COMMAND_HELP = {
    "run": "run one simulation",
    "sweep": "run the sweep described by the config",
    "compare": "compare the configured policies",
    "gen-workload": "materialize a workload spec to trace files",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dcsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in _COMMAND_HELP.items():
        cmd_p = sub.add_parser(name, help=text)
        cmd_p.add_argument("--config", required=True, help="experiment file (JSON)")
        cmd_p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config value by dotted path (repeatable)",
        )
        cmd_p.add_argument("--out", help="output directory (default: config output_dir or 'out')")
        cmd_p.add_argument("--seed", type=int, help="override the workload generator seed")
        if name in ("sweep", "compare"):
            cmd_p.add_argument("--jobs", type=int, default=1, help="parallel simulation processes")
    return parser


def _prepare(args) -> tuple[dict, Experiment]:
    """The command's resolved config document and the experiment built from it."""
    raw = load_raw_config(args.config)
    apply_overrides(raw, args.overrides)
    return raw, build_experiment(raw, base_dir=os.path.dirname(os.path.abspath(args.config)))


def _make_out(args, raw: dict, experiment: Experiment) -> str:
    """Create the output directory holding ``effective_config.json``; returns its path."""
    out_dir = args.out or experiment.output_dir or "out"
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "effective_config.json"), "w") as fh:
        fh.write(effective_config_json(raw))
    return out_dir


def cmd_experiment(args) -> int:
    """``run``, ``sweep`` or ``compare``: get the result, then write and print it."""
    raw, experiment = _prepare(args)
    section = {} if args.command == "run" else getattr(experiment, args.command)
    if section is None:
        raise ConfigError(f"config has no {args.command!r} section")
    workload = experiment.materialize_workload(args.seed)
    lines = []
    if args.command == "run":
        policy = build_policy(experiment.policy_spec)
        result = run_simulation(experiment.sim_config, workload, policy)
        lines.append(f"policy={policy.name}")
    elif args.command == "sweep":
        parameter = section["parameter"]
        result = run_sweep(
            experiment.sim_config,
            workload,
            experiment.policy_spec,
            parameter,
            values=section["values"],
            jobs=args.jobs,
        )
        if not result.points:
            raise ConfigError(
                "sweep: every point was skipped: "
                + "; ".join(f"{parameter}={value}: {reason}" for value, reason in result.skipped)
            )
    else:
        result = compare_policies(
            experiment.sim_config,
            workload,
            section["policies"],
            baseline=section.get("baseline"),
            jobs=args.jobs,
        )
    write_artifacts(result, _make_out(args, raw, experiment))
    for line in lines + console_lines(result):
        print(line)
    return EXIT_OK


def cmd_gen_workload(args) -> int:
    raw, experiment = _prepare(args)
    if "spec" not in experiment.workload_section:
        raise ConfigError("gen-workload requires a workload.spec section")
    workload = experiment.materialize_workload(args.seed)
    out_dir = _make_out(args, raw, experiment)
    trace_path = os.path.join(out_dir, "trace.csv")
    meta_path = os.path.join(out_dir, "meta.csv")
    save_trace_files(workload, trace_path, meta_path)
    samples = sum(len(req.trace) for req in workload)
    print(f"vms={len(workload)} samples={samples}")
    print(f"trace={trace_path}")
    print(f"meta={meta_path}")
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = cmd_gen_workload if args.command == "gen-workload" else cmd_experiment
    try:
        return command(args)
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
