"""Unit tests for the experiment harness: sweeps, comparisons, CSV output."""

import concurrent.futures
import functools
import multiprocessing
import os
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import _fakes as fakes
from dcsim import metrics, policies
from dcsim.engine import EngineError, FleetMachine, SimulationConfig
from dcsim.metrics import (
    COMPARISON_SCHEMA,
    RUN_SCHEMA,
    SWEEP_SCHEMA,
    ComparisonResult,
    SweepPoint,
    SweepResult,
    _savings,
    compare_policies,
    console_lines,
    read_sweep_csv,
    run_sweep,
    write_csv,
    write_plot_data,
    write_summary,
)
from dcsim.model import MachineCapacity, integer
from dcsim.policies import POLICY_IDS, build_policy
from dcsim.engine import run_simulation
from dcsim.workload import WorkloadProfile, WorkloadSpec, generate_workload

CAP = MachineCapacity(4000, 8192, 1000, 1000)

#: More points than the two workers of the parallel tests.  With u_down at
#: 0.3 the similarity runs record ``scale_down_blocked`` in their policy_stats.
EAGER_SIMILARITY = {"id": "similarity", "u_down": 0.3}
FIVE_U_UP = [0.6, 0.7, 0.8, 0.9, 1.0]
FIVE_POLICIES = [
    "greedy",
    "round_robin",
    "power_save",
    dict(EAGER_SIMILARITY, label="similarity-eager"),
    "recommended",
]


def _spawn_pools(monkeypatch):
    """Start the pools of ``metrics`` with ``spawn`` instead of the default method.

    ``metrics`` imports ``ProcessPoolExecutor`` from ``concurrent.futures``
    when it starts a pool, so the patched name is the one it gets.
    """
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        functools.partial(ProcessPoolExecutor, mp_context=spawn),
    )


@pytest.fixture(params=["default", "spawn"])
def start_method(request, monkeypatch):
    """Runs a test's pools under the default start method, then under ``spawn``."""
    if request.param == "spawn":
        _spawn_pools(monkeypatch)
    return request.param


@pytest.fixture
def point_reports(monkeypatch):
    """The reports of every ``_run_points`` call made during a test, in call order."""
    calls = []
    run_points = metrics._run_points

    def recording(*args):
        reports = run_points(*args)
        calls.append(reports)
        return reports

    monkeypatch.setattr(metrics, "_run_points", recording)
    return calls


def _no_run(*args):
    raise AssertionError("a simulation ran")


@pytest.fixture
def build_calls(monkeypatch):
    """The specs of every ``build_policy`` call ``metrics`` makes during a test."""
    specs = []

    def counting(spec):
        specs.append(spec)
        return build_policy(spec)

    monkeypatch.setattr(metrics, "build_policy", counting)
    return specs


def _policy_stats(calls):
    return [[report.policy_stats for report in reports] for reports in calls]


@pytest.fixture(scope="module")
def sim_config():
    return SimulationConfig(
        fleet=tuple(FleetMachine(CAP, 200.0) for _ in range(4)),
        duration_ticks=40,
        tick_length_seconds=60.0,
        initial_running_count=2,
    )


@pytest.fixture(scope="module")
def workload():
    spec = WorkloadSpec(
        seed=13,
        vm_count=8,
        duration_ticks=40,
        profile=WorkloadProfile.SPIKY,
        spike_probability=0.03,
        arrival_spread_ticks=10,
        lifetime_ticks=25,
    )
    return generate_workload(spec)


class TestRunSweep:
    def test_points_are_sorted_by_value(self, sim_config, workload):
        result = run_sweep(
            sim_config, workload, "similarity", "u_up", values=[0.85, 0.45, 0.65]
        )
        assert result.values() == [0.45, 0.65, 0.85]
        assert all(p.energy_kwh > 0 for p in result.points)

    def test_same_workload_gives_identical_reruns(self, sim_config, workload):
        a = run_sweep(sim_config, workload, "similarity", "u_up", values=[0.5, 0.7])
        b = run_sweep(sim_config, workload, "similarity", "u_up", values=[0.5, 0.7])
        assert a.points == b.points

    def test_invalid_points_are_skipped_with_reason(self, sim_config, workload):
        result = run_sweep(
            sim_config, workload, "similarity", "u_up", values=[0.25, 0.65]
        )
        # u_up=0.25 with the default u_down=0.15 violates the minimum gap.
        assert result.values() == [0.65]
        assert len(result.skipped) == 1
        assert result.skipped[0][0] == 0.25
        assert "gap" in result.skipped[0][1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_engine_error_in_a_run_propagates(self, sim_config, workload, jobs):
        # The fleet has four machines, so naming machine 4 is a policy fault,
        # not a configuration the sweep may skip.
        spec = fakes.fixed_placer_spec(0)
        with pytest.raises(EngineError, match="named machine 4, outside the fleet"):
            run_sweep(sim_config, workload, spec, "machine", values=[0, 4], jobs=jobs)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_refused_before_any_run(
        self, sim_config, workload, jobs, monkeypatch
    ):
        monkeypatch.setattr(metrics, "run_simulation", _no_run)
        with pytest.raises(ValueError, match=f"jobs must be an integer >= 1, got {jobs}"):
            run_sweep(sim_config, workload, "similarity", "u_up", values=[0.5, 0.7], jobs=jobs)

    def test_engine_error_propagates_from_spawned_workers(
        self, sim_config, workload, monkeypatch
    ):
        _spawn_pools(monkeypatch)
        spec = fakes.fixed_placer_spec(0)
        with pytest.raises(EngineError, match="named machine 4, outside the fleet"):
            run_sweep(sim_config, workload, spec, "machine", values=[0, 4], jobs=2)

    def test_each_point_builds_its_policy_once(self, sim_config, workload, build_calls):
        result = run_sweep(sim_config, workload, "similarity", "u_up", values=[0.5, 0.7, 0.9])
        assert result.values() == [0.5, 0.7, 0.9]
        assert len(build_calls) == 3

    def test_a_policy_registered_at_runtime_runs_in_spawned_workers(
        self, sim_config, workload, monkeypatch
    ):
        # A spawned worker imports dcsim afresh, so its registry lacks this id;
        # it runs the instance the parent built.
        _spawn_pools(monkeypatch)
        monkeypatch.setitem(
            policies._REGISTRY,
            "late_placer",
            ({"machine": integer(0)}, lambda params: fakes.FixedPlacer(**params)),
        )
        result = run_sweep(sim_config, workload, {"id": "late_placer"}, "machine", [0, 1], jobs=2)
        assert result.values() == [0, 1]
        assert result.skipped == []

    def test_id_is_not_a_sweep_parameter(self, sim_config, workload, monkeypatch):
        # compare runs several policies; a sweep varies one policy's parameter.
        monkeypatch.setattr(metrics, "build_policy", _no_run)
        monkeypatch.setattr(metrics, "_run_points", _no_run)
        with pytest.raises(ValueError, match="^id is not a sweep parameter; compare runs"):
            run_sweep(sim_config, workload, "greedy", "id", values=["power_save", "round_robin"])

    def test_unknown_parameter_without_values_is_an_error(self, sim_config, workload):
        with pytest.raises(TypeError, match="missing 1 required positional argument: 'values'"):
            run_sweep(sim_config, workload, "similarity", "nonsense")

    def test_duplicate_values_rejected(self, sim_config, workload):
        with pytest.raises(ValueError, match="unique"):
            run_sweep(sim_config, workload, "similarity", "u_up", values=[0.5, 0.5])

    @pytest.mark.parametrize(
        "values",
        [[0, 0.0], [0.0, -0.0], [0.1, 0, 0.2, -0.0], [float("nan"), float("nan")]],
        ids=["int-and-float", "signed-zeros", "apart", "nans"],
    )
    def test_equal_numbers_are_duplicate_values(self, sim_config, workload, monkeypatch, values):
        def no_runs(*args):
            raise AssertionError("a simulation ran")

        monkeypatch.setattr(metrics, "_run_points", no_runs)
        with pytest.raises(ValueError, match="^sweep values must be unique$"):
            run_sweep(sim_config, workload, "similarity", "u_down", values=values)

    def test_a_nan_value_sorts_last_and_is_skipped(self, sim_config, workload):
        result = run_sweep(
            sim_config, workload, "similarity", "u_down", values=[0.2, float("nan"), 0.1]
        )
        assert result.values() == [0.1, 0.2]
        assert [repr(value) for value, _ in result.skipped] == ["nan"]

    def test_empty_values_rejected(self, sim_config, workload):
        with pytest.raises(ValueError, match="at least one"):
            run_sweep(sim_config, workload, "similarity", "u_up", values=[])

    def test_policy_is_not_a_sweep_parameter(self, sim_config, workload):
        # compare runs several policies; a sweep sets one policy parameter.
        result = run_sweep(
            sim_config, workload, "similarity", "policy", values=["greedy", "round_robin"]
        )
        assert result.points == []
        assert [value for value, _ in result.skipped] == ["greedy", "round_robin"]
        assert all("unknown 'policy'" in reason for _, reason in result.skipped)

    @pytest.mark.parametrize(
        "parameter, values",
        [
            ("weights", [[0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1]]),
            ("weights", [{"cpu": 1.0, "mem": 0.0, "disk": 0.0, "bw": 0.0}]),
            ("similarity_method", ["free fit", "free-fit"]),
            ("similarity_method", ["dissimilar,free-fit"]),
            ("u_up", [None, 0.7]),
            ("consistency_ticks", [True, 4]),
        ],
        ids=["lists", "mapping", "space", "comma", "null", "bool"],
    )
    def test_values_a_csv_cell_cannot_hold_are_rejected_before_any_run(
        self, sim_config, workload, monkeypatch, parameter, values
    ):
        def no_runs(*args):
            raise AssertionError("a simulation ran")

        monkeypatch.setattr(metrics, "_run_points", no_runs)
        message = f"{parameter} sweep value {values[0]!r} must be a number or a string with no "
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            run_sweep(sim_config, workload, "similarity", parameter, values=values)

    def test_parallel_matches_serial(self, sim_config, workload, start_method, point_reports):
        serial = run_sweep(sim_config, workload, EAGER_SIMILARITY, "u_up", FIVE_U_UP, jobs=1)
        parallel = run_sweep(sim_config, workload, EAGER_SIMILARITY, "u_up", FIVE_U_UP, jobs=2)
        assert len(parallel.points) == len(FIVE_U_UP)
        assert serial.points == parallel.points
        serial_stats, parallel_stats = _policy_stats(point_reports)
        assert all(stats["scale_down_blocked"] > 0 for stats in serial_stats)
        assert serial_stats == parallel_stats

    def test_spawned_workers_receive_the_workload_once_each(
        self, sim_config, workload, monkeypatch
    ):
        _spawn_pools(monkeypatch)
        counted = fakes.PickleCountingList(workload)
        result = run_sweep(sim_config, counted, "similarity", "u_up", values=FIVE_U_UP, jobs=2)
        assert len(result.points) == len(FIVE_U_UP)
        assert 1 <= counted.pickles <= 2


class TestComparePolicies:
    def test_first_policy_is_default_baseline(self, sim_config, workload):
        result = compare_policies(sim_config, workload, ["greedy", "round_robin"])
        assert result.baseline == "greedy"
        assert result.row("greedy").energy_savings_pct == pytest.approx(0.0)

    def test_explicit_baseline(self, sim_config, workload):
        result = compare_policies(
            sim_config, workload, ["greedy", "round_robin"], baseline="round_robin"
        )
        base = result.row("round_robin")
        other = result.row("greedy")
        assert base.energy_savings_pct == pytest.approx(0.0)
        expected = (base.energy_kwh - other.energy_kwh) / base.energy_kwh * 100.0
        assert other.energy_savings_pct == pytest.approx(expected)

    def test_rows_match_standalone_runs(self, sim_config, workload):
        result = compare_policies(sim_config, workload, ["greedy", "recommended"])
        solo = run_simulation(sim_config, workload, build_policy("recommended"))
        row = result.row("recommended")
        assert row.energy_kwh == solo.total_energy_kwh
        assert row.sla_violations == solo.sla_violation_count
        assert row.migrations == solo.migration_count

    def test_each_policy_is_built_once(self, sim_config, workload, build_calls):
        result = compare_policies(sim_config, workload, ["greedy", "recommended"])
        assert [row.policy for row in result.rows] == ["greedy", "recommended"]
        assert build_calls == ["greedy", "recommended"]

    def test_duplicate_labels_rejected(self, sim_config, workload):
        with pytest.raises(ValueError, match="duplicate"):
            compare_policies(sim_config, workload, ["greedy", "greedy"])

    @pytest.mark.parametrize(
        "label", ["a,b", "round robin", "line\nbreak", "tab\there", ["rr"], {"name": "rr"}, True]
    )
    def test_labels_the_writers_cannot_represent_are_rejected(self, sim_config, workload, label):
        specs = ["greedy", {"id": "round_robin", "label": label}]
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            compare_policies(sim_config, workload, specs)

    def test_dict_specs_take_custom_labels(self, sim_config, workload):
        result = compare_policies(
            sim_config,
            workload,
            [
                {"id": "similarity", "u_up": 0.7, "label": "packing-tight"},
                {"id": "similarity", "u_up": 0.9, "label": "packing-loose"},
            ],
        )
        assert [r.policy for r in result.rows] == ["packing-tight", "packing-loose"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_engine_error_in_a_run_propagates(self, sim_config, workload, jobs):
        specs = ["greedy", fakes.fixed_placer_spec(4)]
        with pytest.raises(EngineError, match="named machine 4, outside the fleet"):
            compare_policies(sim_config, workload, specs, jobs=jobs)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_refused_before_any_run(
        self, sim_config, workload, jobs, monkeypatch
    ):
        monkeypatch.setattr(metrics, "run_simulation", _no_run)
        with pytest.raises(ValueError, match=f"jobs must be an integer >= 1, got {jobs}"):
            compare_policies(sim_config, workload, ["greedy", "round_robin"], jobs=jobs)

    def test_a_policy_that_cannot_be_built_is_refused_before_any_run(
        self, sim_config, workload, monkeypatch
    ):
        monkeypatch.setattr(metrics, "_run_points", _no_run)
        specs = ["recommended", {"id": "single_threshold", "threshold": 2.0}]
        message = "threshold must be a finite number in (0, 1], got 2.0"
        with pytest.raises(ValueError, match=re.escape(message)):
            compare_policies(sim_config, workload, specs)

    def test_unknown_baseline_rejected(self, sim_config, workload):
        with pytest.raises(ValueError, match="baseline"):
            compare_policies(sim_config, workload, ["greedy"], baseline="nope")

    def test_row_of_an_unknown_policy_is_a_key_error(self):
        with pytest.raises(KeyError, match="nope"):
            ComparisonResult(baseline="greedy").row("nope")

    def test_parallel_matches_serial(self, sim_config, workload, start_method, point_reports):
        serial = compare_policies(sim_config, workload, FIVE_POLICIES, jobs=1)
        parallel = compare_policies(sim_config, workload, FIVE_POLICIES, jobs=2)
        assert len(parallel.rows) == len(FIVE_POLICIES)
        assert serial.rows == parallel.rows
        serial_stats, parallel_stats = _policy_stats(point_reports)
        assert serial_stats[3]["scale_down_blocked"] > 0
        assert serial_stats == parallel_stats

    def test_every_registered_policy_runs_in_a_pool_worker(self, sim_config, workload):
        # A pool task carries the policy its parent built, so each must pickle.
        serial = compare_policies(sim_config, workload, list(POLICY_IDS), jobs=1)
        parallel = compare_policies(sim_config, workload, list(POLICY_IDS), jobs=2)
        assert len(parallel.rows) == len(POLICY_IDS) == 7
        assert serial.rows == parallel.rows

    def test_pool_has_no_more_workers_than_points(self, sim_config, workload, monkeypatch):
        sizes = []

        def recording_pool(*args, max_workers, **kwargs):
            sizes.append(max_workers)
            return ProcessPoolExecutor(*args, max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
        compare_policies(sim_config, workload, ["greedy", "round_robin"], jobs=8)
        assert sizes == [2]


def test_importing_the_package_loads_no_process_pool():
    # metrics imports concurrent.futures only to start a pool (jobs > 1).
    code = "import sys, dcsim.cli, dcsim.metrics; print('concurrent.futures' in sys.modules)"
    src = str(Path(metrics.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


class TestSavings:
    def test_positive_when_ours_is_lower(self):
        assert _savings(10.0, 6.0) == pytest.approx(40.0)

    def test_negative_when_ours_is_higher(self):
        assert _savings(10.0, 15.0) == pytest.approx(-50.0)

    def test_zero_over_zero_is_zero(self):
        assert _savings(0.0, 0.0) == 0.0

    def test_undefined_when_baseline_zero_and_ours_not(self):
        assert _savings(0.0, 3.0) is None


class TestCsvRoundTrip:
    def make_result(self):
        return SweepResult(
            parameter="u_up",
            points=[
                SweepPoint(0.5, 1.2345678901234567, 12, 2.6666666666666665, 3),
                SweepPoint(0.7, 0.9, 0, 2.0, 0),
            ],
            skipped=[(0.25, "u_up - u_down = 0.1000 is below the minimum gap 0.2")],
        )

    def make_int_result(self):
        return SweepResult(
            parameter="consistency_ticks",
            points=[
                SweepPoint(3, 1.2345678901234567, 12, 2.6666666666666665, 3),
                SweepPoint(5, 0.9, 0, 2.0, 0),
            ],
            skipped=[(0, "consistency_ticks must be an integer >= 1, got 0")],
        )

    def make_string_result(self):
        # Strings that int() or float() accept but that no int or float prints as.
        return SweepResult(
            parameter="similarity_method",
            points=[SweepPoint("free-fit", 0.9, 0, 2.0, 0)],
            skipped=[(raw, f"unknown similarity_method {raw!r}") for raw in ("1_0", "007", "1e3")],
        )

    def results(self):
        return (self.make_result(), self.make_int_result(), self.make_string_result())

    def test_write_read_round_trip(self, tmp_path):
        for original in self.results():
            path = str(tmp_path / f"{original.parameter}.csv")
            write_csv(original, path)
            loaded = read_sweep_csv(path)
            assert loaded.parameter == original.parameter
            assert loaded.points == original.points
            assert loaded.skipped == original.skipped
            # ``3 == 3.0``: an int value must also read back as an int.
            assert [type(v) for v in loaded.values()] == [type(v) for v in original.values()]
            assert [type(v) for v, _ in loaded.skipped] == [type(v) for v, _ in original.skipped]

    def test_rewrite_is_byte_identical(self, tmp_path):
        for original in self.results():
            first = tmp_path / f"{original.parameter}-a.csv"
            second = tmp_path / f"{original.parameter}-b.csv"
            write_csv(original, str(first))
            write_csv(read_sweep_csv(str(first)), str(second))
            assert first.read_bytes() == second.read_bytes()

    def test_schema_line_is_first(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(self.make_result(), str(path))
        assert path.read_text().splitlines()[0] == f"# {SWEEP_SCHEMA}"

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# something else\n")
        with pytest.raises(ValueError, match="not a"):
            read_sweep_csv(str(path))

    def test_rejects_a_missing_parameter_comment(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"# {SWEEP_SCHEMA}\n" + ",".join(metrics.SWEEP_COLUMNS) + "\n")
        with pytest.raises(ValueError, match="missing parameter comment"):
            read_sweep_csv(str(path))

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"# {SWEEP_SCHEMA}\n# parameter: u_up\nvalue,energy\n")
        with pytest.raises(ValueError, match="header"):
            read_sweep_csv(str(path))

    def test_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"# {SWEEP_SCHEMA}\n# parameter: u_up\n"
            "value,energy_kwh,sla_violations,mean_running_machines,migrations\n"
            "0.5,1.0\n"
        )
        with pytest.raises(ValueError, match="malformed"):
            read_sweep_csv(str(path))


class TestOtherCsvOutputs:
    def test_comparison_csv_layout(self, tmp_path, sim_config, workload):
        result = compare_policies(sim_config, workload, ["greedy", "round_robin"])
        path = tmp_path / "cmp.csv"
        write_csv(result, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == f"# {COMPARISON_SCHEMA}"
        assert lines[1] == "# baseline: greedy"
        assert lines[2].startswith("policy,energy_kwh,")
        assert lines[3].startswith("greedy,")
        assert lines[4].startswith("round_robin,")

    def test_run_report_csv_layout(self, tmp_path, sim_config, workload):
        report = run_simulation(sim_config, workload, build_policy("greedy"))
        path = tmp_path / "run.csv"
        write_csv(report, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == f"# {RUN_SCHEMA}"
        assert lines[1] == "tick,running_machines,total_power_watts,sla_violations"
        assert len(lines) == 2 + sim_config.duration_ticks
        assert lines[2].startswith("0,")

    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            write_csv(object(), str(tmp_path / "x.csv"))

    @pytest.mark.parametrize(
        "write, message",
        [
            (lambda result, path: write_plot_data(result, str(path)), "cannot write plot data for"),
            (lambda result, path: write_summary(result, str(path)), "cannot summarize"),
            (lambda result, path: console_lines(result), "cannot describe"),
        ],
        ids=["plot", "summary", "console"],
    )
    def test_other_writers_reject_an_unknown_type(self, tmp_path, write, message):
        with pytest.raises(TypeError, match=f"^{message} object$"):
            write(object(), tmp_path / "x")


class TestPlotData:
    def test_sweep_plot_files(self, tmp_path):
        result = SweepResult(
            parameter="u_up",
            points=[SweepPoint(0.5, 1.5, 3, 2.0, 1), SweepPoint(0.7, 1.2, 5, 1.5, 0)],
        )
        paths = write_plot_data(result, str(tmp_path / "plot_u_up"))
        assert [p.rsplit("_", 1)[-1] for p in paths] == [
            "energy.dat",
            "violations.dat",
            "machines.dat",
        ]
        energy = (tmp_path / "plot_u_up_energy.dat").read_text().splitlines()
        assert energy[0] == "# x: u_up"
        assert energy[1] == "# y: energy_kwh"
        assert energy[2] == "0.5 1.5"

    def test_comparison_plot_file(self, tmp_path):
        result = ComparisonResult(baseline="a")
        from dcsim.metrics import ComparisonRow

        result.rows.append(ComparisonRow("a", 1.0, 2, 3, 1.5, 0.0, 0.0))
        paths = write_plot_data(result, str(tmp_path / "plot_compare"))
        assert paths == [str(tmp_path / "plot_compare_policies.dat")]
        lines = (tmp_path / "plot_compare_policies.dat").read_text().splitlines()
        assert lines[1] == "a 1.0 2"
