"""Tests for experiment config parsing and the command-line interface."""

import hashlib
import json

import pytest

import _fakes  # noqa: F401  (registers the fixed_placer policy)
from dcsim.cli import EXIT_CONFIG, EXIT_ENGINE, EXIT_IO, EXIT_OK, main
from dcsim.config import (
    ConfigError,
    apply_overrides,
    build_experiment,
    build_simulation_config,
    build_workload_spec,
    effective_config_json,
    load_raw_config,
    parse_override,
)
from dcsim.model import UtilizationWeights
from dcsim.workload import WorkloadProfile, generate_workload, load_trace_files


def base_config(**extra):
    cfg = {
        "simulation": {
            "fleet": [
                {
                    "count": 3,
                    "capacity": {"cpu": 4000, "mem": 8192, "disk": 1000, "bw": 1000},
                    "peak_power_watts": 200.0,
                }
            ],
            "duration_ticks": 30,
            "tick_length_seconds": 60.0,
            "initial_running_count": 2,
        },
        "policy": "recommended",
        "workload": {
            "spec": {
                "seed": 9,
                "vm_count": 6,
                "duration_ticks": 30,
                "profile": "spiky",
                "spike_probability": 0.05,
                "arrival_spread_ticks": 10,
                "lifetime_ticks": 15,
            }
        },
    }
    cfg.update(extra)
    return cfg


@pytest.fixture
def config_file(tmp_path):
    def write(**extra):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(base_config(**extra)))
        return str(path)

    return write


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


class TestOverrides:
    def test_parse_json_value(self):
        assert parse_override("simulation.duration_ticks=99") == (
            ["simulation", "duration_ticks"],
            99,
        )

    def test_parse_string_fallback(self):
        assert parse_override("policy=greedy") == (["policy"], "greedy")

    def test_parse_structured_value(self):
        path, value = parse_override('policy={"id": "similarity", "u_up": 0.8}')
        assert path == ["policy"]
        assert value == {"id": "similarity", "u_up": 0.8}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_override("justakey")

    def test_apply_creates_nested_paths(self):
        raw = {}
        apply_overrides(raw, ["a.b.c=1", "a.d=2"])
        assert raw == {"a": {"b": {"c": 1}, "d": 2}}

    def test_apply_cannot_descend_scalars(self):
        with pytest.raises(ConfigError, match="cannot be descended"):
            apply_overrides({"a": 5}, ["a.b=1"])


class TestBuildSimulationConfig:
    def test_fleet_groups_expand_in_order(self):
        raw = base_config()
        raw["simulation"]["fleet"].append(
            {
                "count": 2,
                "capacity": {"cpu": 2000, "mem": 4096, "disk": 500, "bw": 500},
                "peak_power_watts": 120.0,
            }
        )
        cfg = build_simulation_config(raw)
        assert len(cfg.fleet) == 5
        assert cfg.fleet[2].capacity.cpu == 4000
        assert cfg.fleet[3].capacity.cpu == 2000
        assert cfg.fleet[4].peak_power_watts == 120.0

    def test_missing_simulation_section(self):
        with pytest.raises(ConfigError, match="simulation"):
            build_simulation_config({})

    def test_bad_capacity_names_its_context(self):
        raw = base_config()
        del raw["simulation"]["fleet"][0]["capacity"]["bw"]
        with pytest.raises(ConfigError, match=r"fleet\[0\].capacity"):
            build_simulation_config(raw)

    def test_bad_count_rejected(self):
        raw = base_config()
        raw["simulation"]["fleet"][0]["count"] = 0
        with pytest.raises(ConfigError, match="count"):
            build_simulation_config(raw)

    def test_energy_weights_mapping_builds(self):
        raw = base_config()
        raw["simulation"]["energy_weights"] = {"cpu": 0.7, "mem": 0.1, "disk": 0.1, "bw": 0.1}
        cfg = build_simulation_config(raw)
        assert cfg.energy_weights == UtilizationWeights(0.7, 0.1, 0.1, 0.1)

    def test_energy_weights_must_sum_to_one(self):
        raw = base_config()
        raw["simulation"]["energy_weights"] = {"cpu": 0.5, "mem": 0.5, "disk": 0.5, "bw": 0.5}
        with pytest.raises(ConfigError, match=r"simulation\.energy_weights"):
            build_simulation_config(raw)

    def test_energy_weights_must_be_a_mapping(self):
        raw = base_config()
        raw["simulation"]["energy_weights"] = [0.25, 0.25, 0.25, 0.25]
        with pytest.raises(ConfigError, match=r"simulation\.energy_weights"):
            build_simulation_config(raw)

    def test_engine_validation_is_wrapped(self):
        raw = base_config()
        raw["simulation"]["initial_running_count"] = 99
        with pytest.raises(ConfigError, match="simulation"):
            build_simulation_config(raw)


class TestBuildWorkloadSpec:
    def test_profile_parsed(self):
        spec = build_workload_spec(base_config()["workload"]["spec"])
        assert spec.profile is WorkloadProfile.SPIKY

    def test_unknown_profile_lists_known_values(self):
        raw = dict(base_config()["workload"]["spec"], profile="wavy")
        with pytest.raises(ConfigError, match="steady.*diurnal.*spiky.*mixed-intensive"):
            build_workload_spec(raw)

    def test_seed_override(self):
        spec = build_workload_spec(base_config()["workload"]["spec"], seed_override=77)
        assert spec.seed == 77

    def test_unknown_key_rejected(self):
        raw = dict(base_config()["workload"]["spec"], wobble=3)
        with pytest.raises(ConfigError, match="workload.spec"):
            build_workload_spec(raw)


class TestBuildExperiment:
    def test_full_document(self):
        exp = build_experiment(base_config(sweep={"parameter": "u_up"}))
        assert exp.sweep == {"parameter": "u_up"}
        assert exp.policy_spec == "recommended"

    def test_policy_must_be_string_or_mapping(self):
        with pytest.raises(ConfigError, match="policy"):
            build_experiment(base_config(policy=42))

    def test_sweep_requires_parameter(self):
        with pytest.raises(ConfigError, match="parameter"):
            build_experiment(base_config(sweep={}))

    @pytest.mark.parametrize("parameter", [5, "", None, ["u_up"]], ids=repr)
    def test_sweep_parameter_must_be_a_non_empty_string(self, parameter):
        with pytest.raises(ConfigError, match="sweep.parameter"):
            build_experiment(base_config(sweep={"parameter": parameter, "values": [0.5]}))

    @pytest.mark.parametrize("values", ["0.5", 0.5, [], {"a": 1}], ids=repr)
    def test_sweep_values_must_be_a_non_empty_list(self, values):
        with pytest.raises(ConfigError, match="sweep.values"):
            build_experiment(base_config(sweep={"parameter": "u_up", "values": values}))

    def test_compare_requires_two_policies(self):
        with pytest.raises(ConfigError, match="at least two"):
            build_experiment(base_config(compare={"policies": ["greedy"]}))

    def test_workload_requires_spec_or_traces(self):
        exp = build_experiment(base_config(workload={}))
        with pytest.raises(ConfigError, match="spec"):
            exp.materialize_workload()

    def test_workload_cache_is_keyed_on_the_seed(self):
        exp = build_experiment(base_config())
        first = exp.materialize_workload(1)
        second = exp.materialize_workload(2)
        assert second != first
        assert first == build_experiment(base_config()).materialize_workload(1)
        assert second == build_experiment(base_config()).materialize_workload(2)

    def test_effective_json_is_stable(self):
        a = effective_config_json(base_config())
        b = effective_config_json(json.loads(json.dumps(base_config())))
        assert a == b
        assert a.endswith("\n")

    def test_load_raw_config_propagates_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_raw_config(str(tmp_path / "absent.json"))

    def test_load_raw_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_raw_config(str(path))

    def test_load_raw_config_rejects_non_mapping(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="mapping"):
            load_raw_config(str(path))


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------


class TestCliRun:
    def test_run_writes_artifacts(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", config_file(), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "report.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "effective_config.json").exists()
        stdout = capsys.readouterr().out
        assert "policy=similarity" in stdout
        assert "energy_kwh=" in stdout
        summary = json.loads((out / "summary.json").read_text())
        assert summary["energy_kwh"] > 0

    def test_set_overrides_are_applied_and_echoed(self, config_file, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "run",
                "--config",
                config_file(),
                "--out",
                str(out),
                "--set",
                "simulation.duration_ticks=10",
                "--set",
                "workload.spec.duration_ticks=10",
                "--set",
                "workload.spec.arrival_spread_ticks=5",
            ]
        )
        assert code == EXIT_OK
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["simulation"]["duration_ticks"] == 10
        report_lines = (out / "report.csv").read_text().splitlines()
        assert len(report_lines) == 2 + 10  # schema + header + one row per tick

    def test_seed_flag_changes_the_workload(self, config_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", config_file(), "--out", str(out_a), "--seed", "1"]) == EXIT_OK
        assert main(["run", "--config", config_file(), "--out", str(out_b), "--seed", "2"]) == EXIT_OK
        a = json.loads((out_a / "summary.json").read_text())
        b = json.loads((out_b / "summary.json").read_text())
        assert a != b

    def test_reruns_are_byte_identical(self, config_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", config_file(), "--out", str(out_a)]) == EXIT_OK
        assert main(["run", "--config", config_file(), "--out", str(out_b)]) == EXIT_OK
        for name in ("report.csv", "summary.json", "effective_config.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")])
        assert code == EXIT_IO
        assert "i/o error" in capsys.readouterr().err

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_policy_fault_is_engine_error(self, config_file, tmp_path, capsys, command):
        # The fleet has three machines; naming machine 3 is a fault.
        # Importing _fakes registered the policy.
        cfg = config_file(
            policy={"id": "fixed_placer", "machine": 3},
            sweep={"parameter": "machine", "values": [0, 3]},
        )
        code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_ENGINE
        assert "engine error" in capsys.readouterr().err

    def test_placement_outside_the_fleet_is_engine_error(self, config_file, tmp_path, capsys):
        cfg = config_file(policy={"id": "fixed_placer", "machine": 3})
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_ENGINE
        assert "outside the fleet" in capsys.readouterr().err

    def test_unknown_policy_is_config_error(self, config_file, tmp_path, capsys):
        code = main(
            [
                "run",
                "--config",
                config_file(policy="does-not-exist"),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err


class TestCliSweep:
    def test_sweep_writes_artifacts(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = config_file(sweep={"parameter": "u_up", "values": [0.5, 0.7]})
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "sweep_u_up.csv").exists()
        assert (out / "plot_u_up_energy.dat").exists()
        assert (out / "plot_u_up_violations.dat").exists()
        assert (out / "plot_u_up_machines.dat").exists()
        stdout = capsys.readouterr().out
        assert "u_up=0.5" in stdout
        assert "u_up=0.7" in stdout

    def test_sweep_reports_skipped_points(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = config_file(sweep={"parameter": "u_up", "values": [0.25, 0.7]})
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert "skipped" in capsys.readouterr().out

    def test_sweep_values_as_a_string_is_config_error(self, config_file, tmp_path, capsys):
        cfg = config_file(sweep={"parameter": "u_up", "values": "0.5"})
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "sweep.values" in capsys.readouterr().err

    def test_sweep_values_set_to_a_number_is_config_error(self, config_file, tmp_path, capsys):
        cfg = config_file(sweep={"parameter": "u_up", "values": [0.5, 0.7]})
        argv = ["sweep", "--config", cfg, "--set", "sweep.values=0.5", "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_CONFIG
        assert "sweep.values" in capsys.readouterr().err

    def test_sweep_parameter_as_a_number_is_config_error(self, config_file, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = config_file(sweep={"parameter": 5, "values": [0.5]})
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "sweep.parameter" in capsys.readouterr().err
        assert not (out / "sweep_5.csv").exists()

    def test_sweep_with_every_point_skipped_is_config_error(self, config_file, tmp_path, capsys):
        # recommended's u_down is 0.25, so neither u_up lies above it.
        out = tmp_path / "o"
        cfg = config_file(sweep={"parameter": "u_up", "values": [0.2, 0.25]})
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "u_up=0.2: " in err and "u_up=0.25: " in err
        assert err.count("need 0 <= u_down < u_up") == 2
        assert not (out / "sweep_u_up.csv").exists()

    def test_sweep_without_section_is_config_error(self, config_file, tmp_path, capsys):
        code = main(["sweep", "--config", config_file(), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "sweep" in capsys.readouterr().err


class TestCliCompare:
    def test_compare_writes_artifacts(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = config_file(compare={"policies": ["recommended", "single_threshold"]})
        assert main(["compare", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "comparison.csv").exists()
        assert (out / "plot_compare_policies.dat").exists()
        stdout = capsys.readouterr().out
        assert "recommended" in stdout
        assert "single_threshold" in stdout

    def test_label_with_a_comma_is_config_error(self, config_file, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = config_file(compare={"policies": ["greedy", {"id": "recommended", "label": "a,b"}]})
        assert main(["compare", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "'a,b'" in capsys.readouterr().err
        assert not (out / "comparison.csv").exists()

    def test_compare_without_section_is_config_error(self, config_file, tmp_path):
        assert (
            main(["compare", "--config", config_file(), "--out", str(tmp_path / "o")])
            == EXIT_CONFIG
        )


class TestCliGenWorkload:
    def test_generates_loadable_traces(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gen-workload", "--config", config_file(), "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "vms=6" in stdout
        loaded = load_trace_files(str(out / "trace.csv"), str(out / "meta.csv"))
        spec = build_workload_spec(base_config()["workload"]["spec"])
        assert loaded == generate_workload(spec)

    def test_generated_traces_drive_identical_runs(self, config_file, tmp_path):
        gen = tmp_path / "gen"
        assert main(["gen-workload", "--config", config_file(), "--out", str(gen)]) == EXIT_OK

        out_spec = tmp_path / "from_spec"
        assert main(["run", "--config", config_file(), "--out", str(out_spec)]) == EXIT_OK

        trace_cfg = base_config(
            workload={"trace": str(gen / "trace.csv"), "meta": str(gen / "meta.csv")}
        )
        cfg_path = tmp_path / "trace_experiment.json"
        cfg_path.write_text(json.dumps(trace_cfg))
        out_trace = tmp_path / "from_trace"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_trace)]) == EXIT_OK
        assert (out_spec / "report.csv").read_bytes() == (out_trace / "report.csv").read_bytes()

    def test_requires_spec_section(self, config_file, tmp_path, capsys):
        cfg = config_file(workload={"trace": "t.csv", "meta": "m.csv"})
        code = main(["gen-workload", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "spec" in capsys.readouterr().err


class TestArtifactBytes:
    """Every file the commands write, pinned byte for byte on ``base_config``."""

    FILES = {
        "run": {
            "effective_config.json": "15e02e5a60aa551ce83d050a7837107303945ad0914d58d8de0732d8fbfe250b",
            "report.csv": "174e5cddf68302aa87fdda82804f2a96ff4f0a5dec26d0e0cc5ac09027ac4932",
            "summary.json": "1e718b9a4940887bc981f43823cecbb1fd83db07de835afa449f958f4f4535dc",
        },
        "sweep": {
            "effective_config.json": "15e02e5a60aa551ce83d050a7837107303945ad0914d58d8de0732d8fbfe250b",
            "plot_u_up_energy.dat": "a8ff17cecc3b6edb552cf97228bdb3b958dd2dc94b6bf3dddf1387c774ba1ee7",
            "plot_u_up_machines.dat": "99717c72545abafefd8a2f6565afcaac81eae0761d0ac5b32a5b92bf765c5f09",
            "plot_u_up_violations.dat": "9c1a5f5923cb6eafb6d9acc1702213d4a2ed772dd3acf347d5a622e9dadbb699",
            "summary.json": "8a6f44244734cb67da8e2ceac78fa54f484a5704d0453c2d912e95b36c7883e2",
            "sweep_u_up.csv": "d73aa1db3d1ff365a2184c057fb5172ed353b7a8f0e519b2fe5c68edad36f372",
        },
        "compare": {
            "comparison.csv": "50fabc3e013a47fc26a7d2abb185778b9bac845748d65c360b9bf452d2307986",
            "effective_config.json": "15e02e5a60aa551ce83d050a7837107303945ad0914d58d8de0732d8fbfe250b",
            "plot_compare_policies.dat": "da778df25b54c3de9c5e679be81e98741aaf3b3b8a54e2a58d82971a3eddbfbb",
            "summary.json": "f5c4347a7eb2fd02f587e927d94235019430461ab9a6831b4d9a51235dce0213",
        },
        "gen-workload": {
            "effective_config.json": "15e02e5a60aa551ce83d050a7837107303945ad0914d58d8de0732d8fbfe250b",
            "meta.csv": "9327a40d3c5cce0f39efc784e1ff811a08ee8ea79484b29823325ccc0ee5d8aa",
            "trace.csv": "7a26b36076933ec2e1b99adb153883e8047e036aafb4b968f653b495d56f6fd9",
        },
    }
    STDOUT = {
        "run": (
            "policy=similarity\ndropped_actions=1\nenergy_kwh=0.08922159171049628\n"
            "mean_running_machines=1.4\nmigrations=2\npeak_running_machines=2\n"
            "rejected_requests=0\nsla_violations=0\nstandbys=3\nwakes=1\n"
        ),
        "sweep": (
            "u_up=0.5 energy_kwh=0.109439 sla_violations=0 mean_running=1.867\n"
            "u_up=0.7 energy_kwh=0.089222 sla_violations=0 mean_running=1.400\n"
            "u_up=0.25 skipped\n"
        ),
        "compare": (
            "single_threshold: energy_kwh=0.119222 sla_violations=0 "
            "energy_savings=0.00% violation_reduction=0.00%\n"
            "tuned: energy_kwh=0.089222 sla_violations=0 "
            "energy_savings=25.16% violation_reduction=0.00%\n"
            "greedy: energy_kwh=0.119222 sla_violations=0 "
            "energy_savings=0.00% violation_reduction=0.00%\n"
        ),
    }

    @pytest.mark.parametrize("command", sorted(FILES))
    def test_files_and_output_are_pinned(self, config_file, tmp_path, capsys, command):
        # u_up=0.25 is skipped: recommended's u_down is 0.25.
        cfg = config_file(
            sweep={"parameter": "u_up", "values": [0.7, 0.25, 0.5]},
            compare={
                "policies": ["single_threshold", {"id": "recommended", "label": "tuned"}, "greedy"],
                "baseline": "single_threshold",
            },
        )
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert written == self.FILES[command]
        if command in self.STDOUT:
            assert capsys.readouterr().out == self.STDOUT[command]
