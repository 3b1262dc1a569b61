"""Experiment files: JSON documents describing one simulation/sweep/comparison.

An experiment file has the keys ``simulation`` (fleet and engine parameters),
``policy`` (a policy id plus its parameters), ``workload`` (an inline
generator spec or paths to trace files), and optionally ``sweep``,
``compare`` and ``output_dir``; ``model.check_keys`` refuses any other key,
in every section.  Dotted overrides such as ``policy.u_up=0.8`` are applied
to the raw document before validation, and the fully resolved document is
what commands echo into their output directory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Optional

from .engine import FleetMachine, SimulationConfig
from .model import build, check_keys, checked, declared, integer
from .workload import (
    VmRequest,
    WorkloadError,
    WorkloadSpec,
    generate_workload,
    load_trace_files,
)


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configuration."""


def load_raw_config(path: str) -> dict:
    """Read a JSON experiment file.  I/O errors propagate as OSError."""
    with open(path) as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(raw).__name__}")
    return raw


def parse_override(expr: str) -> tuple[list[str], Any]:
    """Parse one ``dotted.path=value`` override; values are JSON literals."""
    key, sep, raw_value = expr.partition("=")
    if not sep or not key:
        raise ConfigError(f"override {expr!r} is not of the form KEY=VALUE")
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    return key.split("."), value


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply dotted-path overrides onto a raw config document."""
    for expr in overrides:
        path, value = parse_override(expr)
        node = raw
        for part in path[:-1]:
            nxt = node.get(part)
            if nxt is None:
                nxt = node[part] = {}
            elif not isinstance(nxt, dict):
                raise ConfigError(
                    f"override {expr!r}: {part!r} is not a mapping and cannot be descended"
                )
            node = nxt
        node[path[-1]] = value
    return raw


#: The kind of a fleet group's ``count``, the one key no dataclass holds.
_FLEET_COUNT = integer(1)


def build_simulation_config(raw: dict) -> SimulationConfig:
    known = ("fleet", *declared(SimulationConfig))
    section = dict(check_keys(raw.get("simulation"), "simulation", known, ("fleet",), ConfigError))
    fleet_raw = section["fleet"]
    if not isinstance(fleet_raw, list) or not fleet_raw:
        raise ConfigError("simulation.fleet: expected a non-empty list of machine groups")
    group_keys = ("count", *declared(FleetMachine))
    fleet: list[FleetMachine] = []
    for index, group in enumerate(fleet_raw):
        context = f"simulation.fleet[{index}]"
        group = dict(check_keys(group, context, group_keys, (), ConfigError))
        count = checked(_FLEET_COUNT, f"{context}.count", group.pop("count", 1), ConfigError)
        fleet.extend([build(FleetMachine, group, context, ConfigError)] * count)
    section["fleet"] = tuple(fleet)
    return build(SimulationConfig, section, "simulation", ConfigError)


def build_workload_spec(raw_spec: dict, seed_override: Optional[int] = None) -> WorkloadSpec:
    if seed_override is not None and isinstance(raw_spec, dict):
        raw_spec = {**raw_spec, "seed": seed_override}
    return build(WorkloadSpec, raw_spec, "workload.spec", ConfigError)


@dataclass(slots=True)
class Experiment:
    """A fully validated experiment: engine config plus policy and workload."""

    sim_config: SimulationConfig
    policy_spec: Any
    workload_section: dict
    base_dir: str
    sweep: Optional[dict] = None
    compare: Optional[dict] = None
    output_dir: Optional[str] = None

    def materialize_workload(self, seed_override: Optional[int] = None) -> list[VmRequest]:
        """The experiment's workload: generated from its spec, or loaded from its traces.

        ``seed_override`` replaces a spec's seed; traces have none, so giving
        one for them is a ``ConfigError``.
        """
        section = self.workload_section
        if "spec" in section:
            return generate_workload(build_workload_spec(section["spec"], seed_override))
        if "trace" in section and "meta" in section:
            if seed_override is not None:
                raise ConfigError("workload: --seed applies only to a 'spec', not to trace files")
            trace = os.path.join(self.base_dir, section["trace"])
            meta = os.path.join(self.base_dir, section["meta"])
            try:
                return load_trace_files(trace, meta)
            except WorkloadError as exc:
                raise ConfigError(str(exc)) from None
        raise ConfigError("workload: needs either a 'spec' mapping or 'trace'+'meta' file paths")


def build_experiment(raw: dict, base_dir: str = ".") -> Experiment:
    known = ("simulation", "policy", "workload", "sweep", "compare", "output_dir")
    check_keys(raw, "", known, known[:3], ConfigError)
    sim_config = build_simulation_config(raw)
    policy_spec = raw["policy"]
    if not isinstance(policy_spec, (dict, str)):
        raise ConfigError("policy: expected a mapping or a policy id string")
    workload = check_keys(raw["workload"], "workload", ("spec", "trace", "meta"), (), ConfigError)
    if "spec" in workload and ("trace" in workload or "meta" in workload):
        raise ConfigError("workload: give either a 'spec' or 'trace'+'meta' file paths, not both")
    sweep = raw.get("sweep")
    if sweep is not None:
        check_keys(sweep, "sweep", ("parameter", "values"), ("parameter", "values"), ConfigError)
        parameter = sweep["parameter"]
        if not isinstance(parameter, str) or not parameter:
            raise ConfigError(f"sweep.parameter: expected a non-empty string, got {parameter!r}")
        values = sweep["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.values: expected a non-empty list, got {values!r}")
    compare = raw.get("compare")
    if compare is not None:
        check_keys(compare, "compare", ("policies", "baseline"), ("policies",), ConfigError)
        policies = compare["policies"]
        if not isinstance(policies, list) or len(policies) < 2:
            raise ConfigError("compare.policies: expected a list of at least two policies")
    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError(f"output_dir: expected a string, got {output_dir!r}")
    return Experiment(
        sim_config=sim_config,
        policy_spec=policy_spec,
        workload_section=workload,
        base_dir=base_dir,
        sweep=sweep,
        compare=compare,
        output_dir=output_dir,
    )


def effective_config_json(raw: dict) -> str:
    """Canonical serialization of the resolved config for output metadata."""
    return json.dumps(raw, sort_keys=True, indent=2) + "\n"
