"""The parameter rule: every input field declares its kind once, and one check names the bad key.

The kinds live on the dataclass fields (``dcsim.model.declare``) and in the
policies' ``parameters``.  These tests hold the declarations to three
things: every config-facing field has one; every parameter leaf of every
preset is checked by its declaration on the config path (a value the kind
rejects raises naming the key, a value it accepts builds); and the README's
tables state the declared kinds.
"""

from __future__ import annotations

import copy
import inspect
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from dcsim import policies
from dcsim.config import (
    _FLEET_COUNT,
    ConfigError,
    build_experiment,
    build_simulation_config,
    build_workload_spec,
    load_raw_config,
)
from dcsim.engine import FleetMachine, SimulationConfig
from dcsim.model import (
    POSITIVE,
    Kind,
    MachineCapacity,
    PowerModel,
    ResourceVector,
    UtilizationWeights,
    checked,
    declared,
    integer,
)
from dcsim.policies import (
    POLICY_IDS,
    DynamicRoundRobinPolicy,
    PolicyConfig,
    SingleThresholdPolicy,
    build_policy,
)
from dcsim.workload import (
    _META_HEADER,
    _META_KINDS,
    _TRACE_HEADER,
    _TRACE_KINDS,
    VmRequest,
    WorkloadSpec,
)

ROOT = Path(__file__).resolve().parent.parent
PRESETS = sorted((ROOT / "configs").glob("*.json"))

#: The dataclasses a configuration or the public API fills in.  Each of
#: their fields declares a kind, except ``SimulationConfig.fleet``: the
#: config layer builds it group by group, each group a checked ``FleetMachine``.
CONFIG_FACING = (
    MachineCapacity,
    ResourceVector,
    UtilizationWeights,
    PowerModel,
    FleetMachine,
    SimulationConfig,
    WorkloadSpec,
    PolicyConfig,
)
UNDECLARED = {(SimulationConfig, "fleet")}

#: The values every preset leaf is tried with; JSON reads ``1e400`` as infinity.
BATTERY = [2.5, True, "0.5", float("nan"), -1, json.loads("1e400"), None, []]


def leaves(kinds: dict[str, Kind], prefix: str = "") -> dict[str, Kind]:
    """Each scalar parameter under ``kinds``, by dotted name; records are opened."""
    out = {}
    for name, kind in kinds.items():
        if kind.cls is None:
            out[prefix + name] = kind
        else:
            out.update(leaves(declared(kind.cls), f"{prefix}{name}."))
    return out


def simulation_leaves() -> dict[str, Kind]:
    group = {"fleet[i].count": _FLEET_COUNT, **leaves(declared(FleetMachine), "fleet[i].")}
    return {**group, **leaves(declared(SimulationConfig))}


def policy_leaves(policy_id: str) -> dict[str, Kind]:
    return leaves(policies._REGISTRY[policy_id][0])


def legal(text: str, value) -> bool:
    """Whether a kind whose ``text`` is given takes ``value``, decided from the text alone."""
    if text == "true or false":
        return type(value) is bool
    if text.startswith("one of "):
        return isinstance(value, str) and repr(value) in text.removeprefix("one of ").split(", ")
    match = re.fullmatch(r"an integer >= (\d+)( or null)?", text)
    if match:
        if value is None:
            return match.group(2) is not None
        return type(value) is int and value >= int(match.group(1))
    if type(value) not in (int, float):
        return False
    try:
        value = float(value)
    except OverflowError:
        return False
    if not math.isfinite(value):
        return False
    match = re.fullmatch(r"a finite number (>=|>) (\S+)", text)
    if match:
        low = float(match.group(2))
        return value > low if match.group(1) == ">" else value >= low
    match = re.fullmatch(r"a finite number in ([\[(])(\S+), (\S+)([\])])", text)
    assert match, text
    low, high = float(match.group(2)), float(match.group(3))
    above = low < value if match.group(1) == "(" else low <= value
    below = value < high if match.group(4) == ")" else value <= high
    return above and below


def accepts(kind: Kind, value) -> bool:
    try:
        checked(kind, "key", value)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# Every field declares a kind
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cls", CONFIG_FACING, ids=lambda cls: cls.__name__)
def test_every_config_facing_field_declares_a_kind(cls):
    missing = [
        f.name
        for f in fields(cls)
        if (cls, f.name) not in UNDECLARED and not isinstance(f.metadata.get("kind"), Kind)
    ]
    assert missing == []


@pytest.mark.parametrize("cls", [SingleThresholdPolicy, DynamicRoundRobinPolicy])
def test_every_policy_constructor_parameter_declares_a_kind(cls):
    names = list(inspect.signature(cls).parameters)
    assert names == list(cls.parameters)
    assert all(isinstance(kind, Kind) for kind in cls.parameters.values())


def test_every_registered_policy_declares_its_parameters():
    for policy_id in POLICY_IDS:
        parameters, _ = policies._REGISTRY[policy_id]
        assert all(isinstance(kind, Kind) for kind in parameters.values()), policy_id
    assert policies._REGISTRY["similarity"][0] == declared(PolicyConfig)


def test_trace_file_columns_take_the_kinds_their_fields_declare():
    """The loader checks a meta column as its field's declaration, with no rule of its own."""
    fields_of = {**declared(VmRequest), **declared(MachineCapacity)}
    assert list(_META_KINDS) == _META_HEADER[1:]
    assert all(kind is fields_of[name] for name, kind in _META_KINDS.items())
    assert list(_TRACE_KINDS) == _TRACE_HEADER[1:]


#: Values at and around every declared bound, and values of the wrong type.
PROBES = [
    0, 0.0, -0.0, 1, 1.0, 2, 0.5, 0.999, 1.001, 1e-300, -1, -1e-300, 2.5, 1e308, 10**400,
    True, False, None, "0.5", "free-fit", "steady", "x", [], [0.25] * 4, {},
    float("nan"), float("inf"), float("-inf"),
]


def test_each_kind_takes_what_its_text_says():
    declarations = [declared(cls) for cls in CONFIG_FACING + (VmRequest,)]
    declarations += [policies._REGISTRY[policy_id][0] for policy_id in POLICY_IDS]
    kinds = {kind for table in declarations for kind in table.values() if kind.cls is None}
    assert len({kind.text for kind in kinds}) >= 12
    wrong = [
        (kind.text, value)
        for kind in kinds
        for value in PROBES
        if accepts(kind, value) != legal(kind.text, value)
    ]
    assert wrong == []


def test_numbers_are_stored_as_floats():
    assert type(checked(POSITIVE, "key", 2)) is float
    assert checked(integer(0), "key", 2) == 2


# ---------------------------------------------------------------------------
# The battery: every leaf of every preset, on the config path
# ---------------------------------------------------------------------------


def _preset_leaves(raw: dict):
    """``(path, kind, key, build)`` for each parameter leaf of a preset.

    ``key`` is what a message names: the dotted path in the simulation and
    workload sections, the parameter's name in a policy.  ``build`` validates
    a document the way a command would, without running anything.  The
    ``sweep`` and ``compare`` directives, ``output_dir`` and the policy ids and
    labels are not parameters; ``test_cli`` checks them.
    """
    sim = simulation_leaves()
    spec = leaves(declared(WorkloadSpec))

    def walk(node, path):
        if isinstance(node, dict):
            for name, value in node.items():
                yield from walk(value, path + (name,))
        elif isinstance(node, list) and path[-1] in ("fleet", "policies"):
            for index, value in enumerate(node):
                yield from walk(value, path + (index,))
        else:
            yield path

    for path in walk(raw, ()):
        section = path[0]
        if section == "simulation":
            dotted = ".".join(f"[{p}]" if isinstance(p, int) else p for p in path)
            dotted = dotted.replace(".[", "[")
            table_key = re.sub(r"\[\d+\]", "[i]", dotted.removeprefix("simulation."))
            yield path, sim[table_key], dotted, build_experiment
        elif section == "workload":
            yield path, spec[".".join(path[2:])], ".".join(path), (
                lambda doc: build_workload_spec(doc["workload"]["spec"])
            )
        elif section == "policy" and path[1] != "id":
            yield path, policy_leaves(raw["policy"]["id"])[path[1]], path[1], (
                lambda doc: build_policy(doc["policy"])
            )
        elif path[:2] == ("compare", "policies") and path[3] not in ("id", "label"):
            index = path[2]
            policy_id = raw["compare"]["policies"][index]["id"]

            def build_compared(doc, index=index):
                spec = dict(doc["compare"]["policies"][index])
                spec.pop("label", None)
                return build_policy(spec)

            yield path, policy_leaves(policy_id)[path[3]], path[3], build_compared


def _set(doc: dict, path: tuple, value) -> dict:
    doc = copy.deepcopy(doc)
    node = doc
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.stem)
def test_every_preset_leaf_is_checked_by_its_declaration(preset):
    raw = load_raw_config(str(preset))
    checked_leaves = 0
    problems = []
    for path, kind, key, build in _preset_leaves(raw):
        checked_leaves += 1
        for value in BATTERY:
            doc = _set(raw, path, value)
            where = f"{'.'.join(map(str, path))}={value!r}"
            if legal(kind.text, value):
                try:
                    build(doc)
                except ValueError as exc:
                    problems.append(f"{where}: legal value refused: {exc}")
                continue
            expected = f"{key} must be {kind.text}, got {value!r}"
            error = ValueError if path[0] in ("policy", "compare") else ConfigError
            try:
                build(doc)
            except error as exc:
                if str(exc) != expected:
                    problems.append(f"{where}: {exc!r}, expected {expected!r}")
            else:
                problems.append(f"{where}: built")
    assert checked_leaves >= 15
    assert problems == []


# ---------------------------------------------------------------------------
# Unknown keys
# ---------------------------------------------------------------------------


def _small_preset() -> dict:
    raw = load_raw_config(str(ROOT / "configs" / "sweep_scale_down.json"))
    raw["simulation"]["energy_weights"] = {"cpu": 0.25, "mem": 0.25, "disk": 0.25, "bw": 0.25}
    raw["workload"]["spec"]["reference_capacity"] = {
        "cpu": 4000, "mem": 8192, "disk": 1000, "bw": 1000
    }
    return raw


@pytest.mark.parametrize(
    "path, key",
    [
        (("simulation", "migration_cost_tick"), "simulation.migration_cost_tick"),
        (("simulation", "power_model", "idle_fracton"), "simulation.power_model.idle_fracton"),
        (("simulation", "fleet", 1, "peak_power_wats"), "simulation.fleet[1].peak_power_wats"),
        (("simulation", "fleet", 0, "capacity", "gpu"), "simulation.fleet[0].capacity.gpu"),
        (("simulation", "energy_weights", "net"), "simulation.energy_weights.net"),
    ],
)
def test_unknown_simulation_keys_are_config_errors(path, key):
    with pytest.raises(ConfigError, match=rf"^unknown key {re.escape(key)}; known: "):
        build_simulation_config(_set(_small_preset(), path, 5))


def _mappings(node, path=()):
    """``(path, dotted key, mapping)`` of each mapping in a document, the document first."""
    if isinstance(node, dict):
        yield path, "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:], node
        for name, value in node.items():
            yield from _mappings(value, path + (name,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _mappings(value, path + (index,))


@pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.stem)
def test_an_undeclared_key_is_named_in_every_section(preset):
    """A bogus key in any mapping of a preset is an error naming its dotted key.

    Policy mappings keep ``build_policy``'s own message.
    """
    raw = load_raw_config(str(preset))
    seen = []
    for path, dotted, node in _mappings(raw):
        if path[:1] == ("policy",) or path[:2] == ("compare", "policies"):
            spec = {k: v for k, v in node.items() if k != "label"}
            with pytest.raises(ValueError, match=r"^bad parameters for policy .*unknown 'bogus'"):
                build_policy({**spec, "bogus": 1})
            continue
        doc = _set(raw, path + ("bogus",), 1)
        key = f"{dotted}.bogus" if dotted else "bogus"
        with pytest.raises(ConfigError, match=rf"^unknown key {re.escape(key)}; known: "):
            build_experiment(doc)
            build_workload_spec(doc["workload"]["spec"])
        seen.append(re.sub(r"\[\d+\]", "[i]", dotted))
    expected = {"", "simulation", "simulation.fleet[i]", "simulation.fleet[i].capacity",
                "simulation.power_model", "workload", "workload.spec"}
    assert expected <= set(seen)
    assert ("sweep" in seen) != ("compare" in seen)


@pytest.mark.parametrize(
    "path, key",
    [
        (("spec", "mean_levl"), "workload.spec.mean_levl"),
        (("spec", "reference_capacity", "gpu"), "workload.spec.reference_capacity.gpu"),
    ],
)
def test_unknown_workload_keys_are_config_errors(path, key):
    workload = _small_preset()["workload"]
    with pytest.raises(ConfigError, match=rf"^unknown key {re.escape(key)}; known: "):
        build_workload_spec(_set(workload, path, 5)["spec"])


def test_unknown_policy_keys_are_named():
    spec = {"id": "similarity", "u_upp": 0.8, "bufer": 0.1}
    with pytest.raises(ValueError, match=r"^bad parameters for policy 'similarity': "
                       r"unknown 'u_upp', 'bufer'; known: u_up, u_down, "):
        build_policy(spec)


def test_a_missing_required_key_is_named():
    raw = _small_preset()
    del raw["simulation"]["fleet"][0]["peak_power_watts"]
    with pytest.raises(
        ConfigError, match=r"^simulation\.fleet\[0\]: missing required key 'peak_power_watts'$"
    ):
        build_simulation_config(raw)


# ---------------------------------------------------------------------------
# The README states the declared kinds
# ---------------------------------------------------------------------------


def _expand(name: str) -> list[str]:
    """``a.{b,c}`` -> ``a.b``, ``a.c``."""
    match = re.fullmatch(r"(.*)\{(.*)\}", name)
    if match is None:
        return [name]
    return [match.group(1) + part for part in match.group(2).split(",")]


def _readme_table(heading: str) -> list[dict[str, str]]:
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index(heading)
    rows = []
    for line in lines[start + 1:]:
        if rows and not line.startswith("|"):
            break
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
    header, _, *body = rows
    return [dict(zip(header, row)) for row in body]


def _readme_kinds(heading: str, key_column: str) -> dict[str, str]:
    kinds = {}
    for row in _readme_table(heading):
        for name in re.findall(r"`([^`]+)`", row[key_column]):
            for leaf in _expand(name):
                kinds[leaf] = row["kind"]
    return kinds


def _texts(kinds: dict[str, Kind]) -> dict[str, str]:
    return {name: kind.text for name, kind in kinds.items()}


def test_readme_simulation_table_matches_the_declarations():
    assert _readme_kinds("### Simulation section", "key") == _texts(simulation_leaves())


def test_readme_workload_table_matches_the_declarations():
    expected = _texts(leaves(declared(WorkloadSpec)))
    assert _readme_kinds("### Workload generator spec", "field") == expected


def test_readme_policy_parameter_table_matches_the_declarations():
    readme: dict[str, dict[str, str]] = {policy_id: {} for policy_id in POLICY_IDS}
    for row in _readme_table("### Policy parameters"):
        for policy_id in re.findall(r"`([^`]+)`", row["policies"]):
            for name in re.findall(r"`([^`]+)`", row["parameter"]):
                for leaf in _expand(name):
                    readme[policy_id][leaf] = row["kind"]
    assert readme == {policy_id: _texts(policy_leaves(policy_id)) for policy_id in POLICY_IDS}
