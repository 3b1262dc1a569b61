"""Unit tests for workload generation and trace file round-trips."""

import math
import pickle
import re
import sys
from array import array

import pytest

from _oracles import reference_generate_workload
from dcsim.model import MachineCapacity
from dcsim.workload import (
    DemandSample,
    DemandTrace,
    VmRequest,
    WorkloadError,
    WorkloadProfile,
    WorkloadSpec,
    _TRACE_KINDS,
    _fields,
    generate_workload,
    load_trace_files,
    save_trace_files,
)


def make_spec(**kw):
    base = dict(seed=42, vm_count=6, duration_ticks=50)
    base.update(kw)
    return WorkloadSpec(**base)


class TestSpecValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(WorkloadError):
            make_spec(vm_count=0)
        with pytest.raises(WorkloadError):
            make_spec(duration_ticks=0)

    def test_rejects_bad_levels(self):
        with pytest.raises(WorkloadError):
            make_spec(mean_level=0.0)
        with pytest.raises(WorkloadError):
            make_spec(nominal_fraction=1.5)
        with pytest.raises(WorkloadError):
            make_spec(jitter=1.0)
        with pytest.raises(WorkloadError):
            make_spec(spike_magnitude=0.5)
        with pytest.raises(WorkloadError):
            make_spec(arrival_spread_ticks=50)

    @pytest.mark.parametrize("magnitude", [math.nan, math.inf])
    def test_rejects_non_finite_spike_magnitude(self, magnitude):
        with pytest.raises(WorkloadError, match="spike_magnitude"):
            make_spec(spike_magnitude=magnitude)

    @pytest.mark.parametrize(
        "name",
        [
            "seed",
            "vm_count",
            "duration_ticks",
            "spike_duration_ticks",
            "diurnal_period_ticks",
            "arrival_spread_ticks",
            "lifetime_ticks",
        ],
    )
    @pytest.mark.parametrize("value", [2.5, 3.0, True])
    def test_integer_fields_reject_non_integers(self, name, value):
        with pytest.raises(WorkloadError, match=name):
            make_spec(**{name: value})

    def test_departure_must_follow_arrival(self):
        nominal = MachineCapacity(1, 1, 1, 1)
        for departure in (5, 4):
            with pytest.raises(WorkloadError, match="departure"):
                VmRequest("vm-0", nominal, 5, departure, ())

    @pytest.mark.parametrize("name", ["arrival_tick", "departure_tick"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True])
    def test_request_ticks_reject_non_integers(self, name, value):
        ticks = {"arrival_tick": 1, "departure_tick": 9, name: value}
        with pytest.raises(WorkloadError, match=f"vm-0: {name} must be an integer"):
            VmRequest("vm-0", MachineCapacity(1, 1, 1, 1), trace=(), **ticks)

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("cpu", math.nan, "a finite number >= 0"),
            ("mem", math.inf, "a finite number >= 0"),
            ("bw", -1.0, "a finite number >= 0"),
            ("tick", True, "an integer >= 0"),
            ("tick", 0.5, "an integer >= 0"),
            ("tick", -1, "an integer >= 0"),
        ],
    )
    def test_request_samples_are_checked_as_trace_fields(self, field, value, kind):
        good = DemandSample(0, 1.0, 1.0, 1.0, 1.0)
        samples = (good, good._replace(**{"tick": 1, field: value}))
        message = f"vm-7: trace[1].{field} must be {kind}, got {value!r}"
        with pytest.raises(WorkloadError, match=re.escape(message)):
            VmRequest("vm-7", MachineCapacity(1, 1, 1, 1), 0, None, samples)
        with pytest.raises(WorkloadError, match=re.escape(message[len("vm-7: "):])):
            DemandTrace.from_samples(samples)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((1, 1.0, 1.0, 1.0), "trace[1] has 4 fields, not 5: (1, 1.0, 1.0, 1.0)"),
            ((1, 1.0, 1.0, 1.0, 1.0, 1.0), "trace[1] has 6 fields, not 5"),
            (DemandSample(2**63, 1.0, 1.0, 1.0, 1.0), f"trace[1].tick {2**63} overflows int64"),
        ],
        ids=["4-fields", "6-fields", "tick-2**63"],
    )
    def test_request_samples_of_the_wrong_shape_are_workload_errors(self, bad, message):
        samples = (DemandSample(0, 1.0, 1.0, 1.0, 1.0), bad)
        with pytest.raises(WorkloadError, match=re.escape(f"vm-7: {message}")):
            VmRequest("vm-7", MachineCapacity(1, 1, 1, 1), 0, None, samples)
        with pytest.raises(WorkloadError, match=re.escape(message)):
            DemandTrace.from_samples(samples)

    def test_the_largest_int64_tick_is_accepted(self):
        trace = DemandTrace.from_samples([DemandSample(2**63 - 1, 1.0, 1.0, 1.0, 1.0)])
        assert list(trace.ticks) == [2**63 - 1]

    def test_request_validates_trace_order(self):
        nominal = MachineCapacity(1, 1, 1, 1)
        with pytest.raises(WorkloadError):
            VmRequest(
                "vm-0",
                nominal,
                0,
                None,
                (DemandSample(1, 0, 0, 0, 0), DemandSample(1, 0, 0, 0, 0)),
            )

    def test_a_negative_first_tick_names_the_rule_it_breaks(self):
        ticks = range(-2, 1)
        trace = DemandTrace(ticks, *TestDemandTrace.columns(len(ticks)))
        message = "vm-0: trace ticks must be integers >= 0, got first tick -2"
        with pytest.raises(WorkloadError, match=f"^{re.escape(message)}$"):
            VmRequest("vm-0", MachineCapacity(1, 1, 1, 1), 0, None, trace)


class TestGeneration:
    def test_deterministic_for_same_seed(self):
        spec = make_spec(profile=WorkloadProfile.SPIKY, spike_probability=0.05)
        assert generate_workload(spec) == generate_workload(spec)

    def test_different_seeds_differ(self):
        a = generate_workload(make_spec(seed=1))
        b = generate_workload(make_spec(seed=2))
        assert a != b

    def test_vm_ids_are_zero_padded_and_unique(self):
        reqs = generate_workload(make_spec(vm_count=12))
        ids = [r.vm_id for r in reqs]
        assert ids == sorted(ids)
        assert len(set(ids)) == 12
        assert ids[0] == "vm-00"
        assert ids[11] == "vm-11"

    def test_trace_is_dense_over_residency(self):
        reqs = generate_workload(
            make_spec(arrival_spread_ticks=20, lifetime_ticks=15, duration_ticks=50)
        )
        for req in reqs:
            end = min(req.departure_tick, 50)
            assert [s.tick for s in req.trace] == list(range(req.arrival_tick, end))

    def test_lifetime_sets_departure(self):
        reqs = generate_workload(make_spec(lifetime_ticks=10))
        for req in reqs:
            assert req.departure_tick == req.arrival_tick + 10

    def test_no_lifetime_means_no_departure(self):
        reqs = generate_workload(make_spec())
        assert all(r.departure_tick is None for r in reqs)

    def test_demand_respects_ceiling(self):
        spec = make_spec(
            profile=WorkloadProfile.SPIKY,
            spike_probability=0.2,
            spike_magnitude=1.5,
            jitter=0.1,
        )
        for req in generate_workload(spec):
            ceiling = [c * 1.5 for c in req.nominal.as_tuple()]
            for s in req.trace:
                for value, cap in zip((s.cpu, s.mem, s.disk, s.bw), ceiling):
                    assert 0.0 <= value <= cap + 1e-9

    def test_nominal_is_fraction_of_reference(self):
        ref = MachineCapacity(4000, 8192, 1000, 1000)
        reqs = generate_workload(make_spec(nominal_fraction=0.25, reference_capacity=ref))
        assert reqs[0].nominal.as_tuple() == (1000.0, 2048.0, 250.0, 250.0)

    def test_spiky_with_zero_probability_equals_steady(self):
        steady = generate_workload(make_spec(profile=WorkloadProfile.STEADY))
        spiky = generate_workload(
            make_spec(profile=WorkloadProfile.SPIKY, spike_probability=0.0)
        )
        assert [r.trace for r in steady] == [r.trace for r in spiky]

    def test_spikes_raise_demand_for_their_duration(self):
        spec = make_spec(
            vm_count=4,
            duration_ticks=400,
            profile=WorkloadProfile.SPIKY,
            spike_probability=0.02,
            spike_magnitude=1.5,
            jitter=0.0,
        )
        base = generate_workload(make_spec(vm_count=4, duration_ticks=400, jitter=0.0))
        spiked = generate_workload(spec)
        saw_spike = False
        for plain, hot in zip(base, spiked):
            for a, b in zip(plain.trace, hot.trace):
                ratio = b.cpu / a.cpu
                assert ratio == pytest.approx(1.0) or ratio == pytest.approx(1.5)
                if ratio > 1.1:
                    saw_spike = True
        assert saw_spike

    def test_synchronized_spikes_hit_every_vm_on_the_same_ticks(self):
        spec = make_spec(
            vm_count=5,
            duration_ticks=400,
            profile=WorkloadProfile.SPIKY,
            spike_probability=0.02,
            spike_magnitude=2.0,
            spike_synchronized=True,
            jitter=0.0,
        )
        base = generate_workload(make_spec(vm_count=5, duration_ticks=400, jitter=0.0))
        spiked = generate_workload(spec)
        hot_ticks_per_vm = []
        for plain, hot in zip(base, spiked):
            hot_ticks = {
                b.tick for a, b in zip(plain.trace, hot.trace) if b.cpu > a.cpu * 1.5
            }
            hot_ticks_per_vm.append(hot_ticks)
        assert hot_ticks_per_vm[0]
        assert all(ticks == hot_ticks_per_vm[0] for ticks in hot_ticks_per_vm)

    def test_synchronized_flag_changes_schedule_but_not_base_demand(self):
        shared = dict(
            vm_count=3,
            duration_ticks=300,
            profile=WorkloadProfile.SPIKY,
            spike_probability=0.03,
        )
        solo = generate_workload(make_spec(**shared))
        synced = generate_workload(make_spec(**shared, spike_synchronized=True))
        assert [r.arrival_tick for r in solo] == [r.arrival_tick for r in synced]
        # Same ceiling-capped magnitudes, different (global vs per-VM) onsets.
        assert [r.trace for r in solo] != [r.trace for r in synced]
        again = generate_workload(make_spec(**shared, spike_synchronized=True))
        assert [r.trace for r in synced] == [r.trace for r in again]

    def test_size_spread_scatters_nominals_within_bounds(self):
        reqs = generate_workload(
            make_spec(vm_count=40, nominal_fraction=0.2, nominal_fraction_spread=0.25)
        )
        fractions = {req.nominal.cpu / 4000.0 for req in reqs}
        assert len(fractions) > 1
        for f in fractions:
            assert 0.2 * 0.75 <= f <= 0.2 * 1.25
        again = generate_workload(
            make_spec(vm_count=40, nominal_fraction=0.2, nominal_fraction_spread=0.25)
        )
        assert [r.nominal for r in reqs] == [r.nominal for r in again]

    def test_zero_size_spread_is_the_default_uniform_size(self):
        plain = generate_workload(make_spec(vm_count=6))
        explicit = generate_workload(make_spec(vm_count=6, nominal_fraction_spread=0.0))
        assert [r.trace for r in plain] == [r.trace for r in explicit]
        assert len({r.nominal for r in plain}) == 1

    def test_diurnal_has_trough_at_start_and_peak_mid_period(self):
        spec = make_spec(
            vm_count=1,
            duration_ticks=100,
            profile=WorkloadProfile.DIURNAL,
            diurnal_period_ticks=100,
            diurnal_amplitude=0.8,
            jitter=0.0,
        )
        trace = generate_workload(spec)[0].trace
        cpus = [s.cpu for s in trace]
        assert cpus[0] == pytest.approx(min(cpus))
        assert cpus[50] == pytest.approx(max(cpus))
        # Trough level is (1 - amplitude) of the steady demand.
        assert cpus[0] == pytest.approx(cpus[50] * 0.2, rel=1e-9)

    def test_mixed_intensive_rotates_dominant_resource(self):
        spec = make_spec(
            vm_count=8,
            profile=WorkloadProfile.MIXED_INTENSIVE,
            dominant_level=0.7,
            background_level=0.15,
            jitter=0.0,
        )
        reqs = generate_workload(spec)
        for index, req in enumerate(reqs):
            sample = req.trace[0]
            values = [
                sample.cpu / req.nominal.cpu,
                sample.mem / req.nominal.mem,
                sample.disk / req.nominal.disk,
                sample.bw / req.nominal.bw,
            ]
            assert max(range(4), key=values.__getitem__) == index % 4
            assert values[index % 4] == pytest.approx(0.7)

    def test_jitter_zero_means_flat_steady_trace(self):
        reqs = generate_workload(make_spec(vm_count=2, jitter=0.0))
        for req in reqs:
            first = req.trace[0]
            for s in req.trace:
                assert (s.cpu, s.mem, s.disk, s.bw) == (
                    first.cpu,
                    first.mem,
                    first.disk,
                    first.bw,
                )

    def test_feature_streams_are_independent(self):
        # Changing spike parameters must not perturb arrivals or base demand.
        plain = generate_workload(make_spec(arrival_spread_ticks=30))
        spiked = generate_workload(
            make_spec(
                arrival_spread_ticks=30,
                profile=WorkloadProfile.SPIKY,
                spike_probability=0.5,
            )
        )
        for a, b in zip(plain, spiked):
            assert a.arrival_tick == b.arrival_tick


_SPIKY = dict(profile=WorkloadProfile.SPIKY, spike_probability=0.05, spike_duration_ticks=4)

REFERENCE_CASES = {
    "steady": dict(profile=WorkloadProfile.STEADY),
    "diurnal": dict(profile=WorkloadProfile.DIURNAL),
    "spiky": dict(_SPIKY),
    "mixed-intensive": dict(profile=WorkloadProfile.MIXED_INTENSIVE, spike_probability=0.05),
    "private-spikes": dict(_SPIKY, spike_magnitude=1.7),
    "synchronized-spikes": dict(_SPIKY, spike_synchronized=True),
    "private-spikes-always": dict(_SPIKY, spike_probability=1.0),
    "synchronized-spikes-always": dict(_SPIKY, spike_probability=1.0, spike_synchronized=True),
    "size-spread": dict(nominal_fraction_spread=0.3),
    "short-lives": dict(_SPIKY, arrival_spread_ticks=90, lifetime_ticks=17),
    "jitter-zero": dict(jitter=0.0),
    "ceiling-ties": dict(jitter=0.0, mean_level=1.0, spike_magnitude=1.0),
    "ceiling-clamps": dict(jitter=0.3, mean_level=1.0, spike_magnitude=1.0),
    "full-amplitude": dict(profile=WorkloadProfile.DIURNAL, diurnal_amplitude=1.0),
    "short-period": dict(profile=WorkloadProfile.DIURNAL, diurnal_period_ticks=7),
    "every-feature": dict(
        profile=WorkloadProfile.MIXED_INTENSIVE,
        spike_probability=0.2,
        spike_synchronized=True,
        spike_magnitude=1.25,
        nominal_fraction_spread=0.4,
        arrival_spread_ticks=60,
        lifetime_ticks=45,
        jitter=0.2,
        dominant_level=1.0,
    ),
}


class TestReferenceGenerator:
    """The straight-line generator reproduces the per-resource loop exactly."""

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_matches_reference_loop(self, case):
        spec = make_spec(vm_count=12, duration_ticks=120, seed=7, **REFERENCE_CASES[case])
        got = generate_workload(spec)
        want = reference_generate_workload(spec)
        assert got == want
        # repr tells -0.0 from 0.0, which == does not.
        assert repr(got) == repr(want)
        assert all(type(s) is DemandSample for req in got for s in req.trace)

    def test_cases_reach_the_edges(self):
        spec = make_spec(vm_count=12, duration_ticks=120, seed=7, **REFERENCE_CASES["short-lives"])
        reqs = generate_workload(spec)
        assert any(req.arrival_tick > 0 for req in reqs)
        assert any(req.trace[-1].tick < 119 for req in reqs)
        for case in ("ceiling-ties", "ceiling-clamps"):
            spec = make_spec(vm_count=12, duration_ticks=120, seed=7, **REFERENCE_CASES[case])
            reqs = generate_workload(spec)
            assert any(s.cpu == req.nominal.cpu for req in reqs for s in req.trace)


class TestTraceFiles:
    def test_round_trip_is_exact(self, tmp_path):
        spec = make_spec(
            profile=WorkloadProfile.SPIKY,
            spike_probability=0.1,
            arrival_spread_ticks=10,
            lifetime_ticks=25,
        )
        original = generate_workload(spec)
        trace = str(tmp_path / "trace.csv")
        meta = str(tmp_path / "meta.csv")
        save_trace_files(original, trace, meta)
        assert load_trace_files(trace, meta) == original

    def test_a_loaded_generated_workload_holds_range_ticks(self, tmp_path):
        original = generate_workload(make_spec(arrival_spread_ticks=10, lifetime_ticks=25))
        trace = str(tmp_path / "trace.csv")
        meta = str(tmp_path / "meta.csv")
        save_trace_files(original, trace, meta)
        loaded = load_trace_files(trace, meta)
        assert loaded == original
        assert all(type(req.trace.ticks) is range for req in original + loaded)

    def test_a_trace_with_a_gap_loads_as_an_array(self, tmp_path):
        meta = self._write(
            tmp_path / "meta.csv",
            "vm_id,arrival_tick,departure_tick,cpu,mem,disk,bw\nvm-0,0,,100,100,100,100\n",
        )
        trace = self._write(
            tmp_path / "trace.csv",
            "vm_id,tick,cpu,mem,disk,bw\nvm-0,1,1,1,1,1\nvm-0,2,1,1,1,1\nvm-0,4,1,1,1,1\n",
        )
        (request,) = load_trace_files(trace, meta)
        assert request.trace.ticks == array("q", [1, 2, 4])

    def test_save_is_byte_stable(self, tmp_path):
        reqs = generate_workload(make_spec())
        a = tmp_path / "a.csv"
        am = tmp_path / "am.csv"
        b = tmp_path / "b.csv"
        bm = tmp_path / "bm.csv"
        save_trace_files(reqs, str(a), str(am))
        save_trace_files(reqs, str(b), str(bm))
        assert a.read_bytes() == b.read_bytes()
        assert am.read_bytes() == bm.read_bytes()

    def _write(self, path, text):
        path.write_text(text)
        return str(path)

    def test_bad_header_is_reported(self, tmp_path):
        meta = self._write(
            tmp_path / "meta.csv", "vm,arrival\nvm-0,0\n"
        )
        trace = self._write(tmp_path / "trace.csv", "vm_id,tick,cpu,mem,disk,bw\n")
        with pytest.raises(WorkloadError, match=r"meta\.csv:1"):
            load_trace_files(trace, meta)

    def test_bad_trace_header_is_reported(self, tmp_path):
        meta = self._write(
            tmp_path / "meta.csv",
            "vm_id,arrival_tick,departure_tick,cpu,mem,disk,bw\nvm-0,0,,100,100,100,100\n",
        )
        trace = self._write(tmp_path / "trace.csv", "vm_id,tick,cpu\nvm-0,0,1\n")
        with pytest.raises(WorkloadError, match=r"trace\.csv:1: expected header"):
            load_trace_files(trace, meta)

    @pytest.mark.parametrize(
        "file, row",
        [("meta.csv", "vm-0,0,,100,100,100"), ("trace.csv", "vm-0,0,1,1,1,1,1")],
    )
    def test_a_row_with_the_wrong_field_count_is_reported(self, tmp_path, file, row):
        files = {
            "meta.csv": ["vm_id,arrival_tick,departure_tick,cpu,mem,disk,bw", "vm-0,0,,100,100,100,100"],
            "trace.csv": ["vm_id,tick,cpu,mem,disk,bw", "vm-0,0,1,1,1,1"],
        }
        files[file][1] = row
        for name, (header, line) in files.items():
            self._write(tmp_path / name, f"{header}\n{line}\n")
        fields = len(files[file][0].split(","))
        with pytest.raises(WorkloadError, match=rf"{re.escape(file)}:2: expected {fields} fields$"):
            load_trace_files(str(tmp_path / "trace.csv"), str(tmp_path / "meta.csv"))

    @pytest.mark.parametrize(
        "file, column, value",
        [
            ("trace.csv", "cpu", "oops"),
            ("trace.csv", "tick", "-1"),
            ("trace.csv", "mem", "-0.5"),
            ("meta.csv", "cpu", "0"),
            ("meta.csv", "mem", "-1"),
            ("meta.csv", "disk", "nan"),
            ("meta.csv", "bw", "1e400"),
            ("meta.csv", "arrival_tick", "1.5"),
            ("meta.csv", "arrival_tick", "-1"),
            ("meta.csv", "departure_tick", "1.5"),
            ("meta.csv", "departure_tick", "0"),
        ],
    )
    def test_bad_number_names_file_line_and_field(self, tmp_path, file, column, value):
        rows = {
            "meta.csv": dict(
                vm_id="vm-0", arrival_tick="0", departure_tick="", cpu="100", mem="100", disk="100", bw="100"
            ),
            "trace.csv": dict(vm_id="vm-0", tick="0", cpu="1", mem="1", disk="1", bw="1"),
        }
        rows[file][column] = value
        for name, row in rows.items():
            self._write(tmp_path / name, f"{','.join(row)}\n{','.join(row.values())}\n")
        with pytest.raises(WorkloadError, match=rf"{re.escape(file)}:2: field '{column}'"):
            load_trace_files(str(tmp_path / "trace.csv"), str(tmp_path / "meta.csv"))

    def test_unknown_vm_in_trace_rejected(self, tmp_path):
        meta = self._write(
            tmp_path / "meta.csv",
            "vm_id,arrival_tick,departure_tick,cpu,mem,disk,bw\n"
            "vm-0,0,,100,100,100,100\n",
        )
        trace = self._write(
            tmp_path / "trace.csv",
            "vm_id,tick,cpu,mem,disk,bw\nvm-9,0,1,1,1,1\n",
        )
        with pytest.raises(WorkloadError, match="unknown vm_id"):
            load_trace_files(trace, meta)

    def test_duplicate_meta_row_rejected(self, tmp_path):
        meta = self._write(
            tmp_path / "meta.csv",
            "vm_id,arrival_tick,departure_tick,cpu,mem,disk,bw\n"
            "vm-0,0,,100,100,100,100\nvm-0,0,,100,100,100,100\n",
        )
        trace = self._write(tmp_path / "trace.csv", "vm_id,tick,cpu,mem,disk,bw\n")
        with pytest.raises(WorkloadError, match="duplicate vm_id"):
            load_trace_files(trace, meta)

    def test_non_monotone_trace_ticks_rejected(self, tmp_path):
        meta = self._write(
            tmp_path / "meta.csv",
            "vm_id,arrival_tick,departure_tick,cpu,mem,disk,bw\n"
            "vm-0,0,,100,100,100,100\n",
        )
        trace = self._write(
            tmp_path / "trace.csv",
            "vm_id,tick,cpu,mem,disk,bw\nvm-0,3,1,1,1,1\nvm-0,3,1,1,1,1\n",
        )
        with pytest.raises(WorkloadError, match="strictly increasing"):
            load_trace_files(trace, meta)

    def test_tick_out_of_range_rejected(self, tmp_path):
        meta = self._write(
            tmp_path / "meta.csv",
            "vm_id,arrival_tick,departure_tick,cpu,mem,disk,bw\n"
            "vm-0,0,,100,100,100,100\n",
        )
        trace = self._write(
            tmp_path / "trace.csv",
            f"vm_id,tick,cpu,mem,disk,bw\nvm-0,{2**63},1,1,1,1\n",
        )
        with pytest.raises(WorkloadError, match=r"trace\.csv:2.*'tick'"):
            load_trace_files(trace, meta)

    @pytest.mark.parametrize(
        "field",
        [
            "7", "+5", " 5", "-0", "0", "5.0", "1e3", "-0.0", "0.0", "1e-3", "1_000", "-1",
            "-0.5", "nan", "inf", "-inf", "1e400", "9" * 400, "\u0665", "\uff15", "",
        ],
        ids=lambda field: repr(field) if len(field) < 20 else f"{len(field)}-digit",
    )
    def test_a_trace_row_loads_as_its_checked_fields_read_it(self, tmp_path, field):
        # The loader reads plain rows without _fields; every row must still
        # load as _fields reads it (values, types and signs of zero alike),
        # or fail with the message _fields gives.
        meta = self._write(
            tmp_path / "meta.csv",
            "vm_id,arrival_tick,departure_tick,cpu,mem,disk,bw\nvm-0,0,,100,100,100,100\n",
        )
        for places in ([0], [1], [2], [3], [4], [1, 2, 3, 4]):
            raws = ["3", "1.5", "2", "0.25", "4"]
            for place in places:
                raws[place] = field
            trace = self._write(
                tmp_path / "trace.csv", "vm_id,tick,cpu,mem,disk,bw\nvm-0," + ",".join(raws) + "\n"
            )
            try:
                expected = _fields(trace, 2, _TRACE_KINDS, raws)
            except WorkloadError as exc:
                with pytest.raises(WorkloadError) as caught:
                    load_trace_files(trace, meta)
                assert str(caught.value) == str(exc)
                continue
            if expected[0] >= 2**63:
                with pytest.raises(WorkloadError, match=r"trace\.csv:2: field 'tick' is out of range"):
                    load_trace_files(trace, meta)
                continue
            (request,) = load_trace_files(trace, meta)
            tr = request.trace
            loaded = [tr.ticks[0], tr.cpu[0], tr.mem[0], tr.disk[0], tr.bw[0]]
            assert [(type(v), repr(v)) for v in loaded] == [(type(v), repr(v)) for v in expected]


class TestDemandTrace:
    """A trace is five columns that read as a sequence of ``DemandSample``."""

    SAMPLES = (
        DemandSample(2, 1.0, 2.0, 3.0, 4.0),
        DemandSample(3, -0.0, 0.5, 0.25, 0.125),
        DemandSample(5, 7.0, 0.0, 1.5, 2.5),
    )

    def trace(self):
        return DemandTrace.from_samples(self.SAMPLES)

    def test_indexing(self):
        trace = self.trace()
        assert len(trace) == 3
        assert trace[0] == self.SAMPLES[0]
        assert trace[-1] == self.SAMPLES[-1]
        assert type(trace[-2]) is DemandSample
        with pytest.raises(IndexError):
            trace[3]

    def test_slices_are_traces(self):
        trace = self.trace()
        for index in (slice(1, None), slice(None, -1), slice(None, None, 2), slice(3, 3)):
            part = trace[index]
            assert type(part) is DemandTrace
            assert tuple(part) == self.SAMPLES[index]

    def test_iteration_yields_samples(self):
        trace = self.trace()
        assert tuple(trace) == self.SAMPLES
        assert all(type(s) is DemandSample for s in trace)
        assert [s.tick for s in trace] == [2, 3, 5]

    def test_equality(self):
        trace = self.trace()
        assert trace == self.trace()
        assert hash(trace) == hash(self.trace())
        assert trace != trace[:2]
        other = DemandTrace.from_samples(self.SAMPLES[:2] + (DemandSample(5, 7.0, 0.0, 1.5, 9.0),))
        assert trace != other
        assert trace != self.SAMPLES  # like a tuple and a list, only traces compare equal

    def test_repr_tells_negative_zero(self):
        trace = self.trace()
        positive = DemandTrace.from_samples(
            (self.SAMPLES[0], self.SAMPLES[1]._replace(cpu=0.0), self.SAMPLES[2])
        )
        assert trace == positive
        assert "-0.0" in repr(trace)
        assert repr(trace) != repr(positive)

    def test_pickle_round_trip(self):
        trace = self.trace()
        again = pickle.loads(pickle.dumps(trace))
        assert type(again) is DemandTrace
        assert again == trace
        assert repr(again) == repr(trace)

    @staticmethod
    def columns(n):
        return [array("d", [float(i)] * n) for i in range(4)]

    def test_consecutive_ticks_are_held_as_a_range(self):
        from_array = DemandTrace(array("q", range(5)), *self.columns(5))
        from_range = DemandTrace(range(5), *self.columns(5))
        assert type(from_array.ticks) is type(from_range.ticks) is range
        assert from_array == from_range
        assert hash(from_array) == hash(from_range)
        assert repr(from_array) == repr(from_range)
        assert DemandTrace(range(5, 6, 3), *self.columns(1)).ticks == range(5, 6)

    def test_ticks_that_are_not_consecutive_are_held_as_an_array(self):
        assert DemandTrace(range(0, 10, 2), *self.columns(5)).ticks == array("q", [0, 2, 4, 6, 8])
        assert type(self.trace().ticks) is array
        trace = DemandTrace(range(5), *(array("d", range(i, i + 5)) for i in range(4)))
        for index in (slice(None, None, 2), slice(None, None, -1)):
            part = trace[index]
            assert type(part.ticks) is array
            assert part == DemandTrace.from_samples(tuple(trace)[index])
            assert hash(part) == hash(DemandTrace.from_samples(tuple(trace)[index]))
        assert type(trace[1:3].ticks) is range
        assert type(self.trace()[:2].ticks) is range

    def test_empty_traces_are_equal(self):
        traces = [
            DemandTrace(array("q"), *self.columns(0)),
            DemandTrace(range(3, 3), *self.columns(0)),
            DemandTrace.from_samples([]),
            self.trace()[3:],
        ]
        assert all(trace.ticks == range(0) and type(trace.ticks) is range for trace in traces)
        assert len(set(traces)) == 1
        assert len(set(map(repr, traces))) == 1

    def test_pickling_keeps_a_range(self):
        trace = generate_workload(make_spec(vm_count=1))[0].trace
        again = pickle.loads(pickle.dumps(trace))
        assert type(again.ticks) is range
        assert again == trace

    @pytest.mark.parametrize(
        "ticks",
        [
            range(2**63, 2**63 + 3),
            range(2**63, 2**63 + 6, 2),
            range(2**63, 2**63 - 3, -1),
            range(-(2**63) - 1, -(2**63) + 2),
            range(2**63 - 1, 2**64, 2**63),
        ],
        ids=["past-max", "past-max-strided", "past-max-reversed", "below-min", "last-past-max"],
    )
    def test_a_range_of_ticks_past_int64_is_a_workload_error(self, ticks):
        message = f"trace ticks {ticks!r} overflow int64: each must lie in [-2**63, 2**63 - 1]"
        with pytest.raises(WorkloadError, match=f"^{re.escape(message)}$"):
            DemandTrace(ticks, *self.columns(len(ticks)))

    def test_a_range_of_ticks_at_the_int64_ends_is_kept_and_sliced(self):
        for ticks in (range(2**63 - 3, 2**63), range(2**63 - 1, -(2**63) - 1, 1 - 2**64)):
            trace = DemandTrace(ticks, *self.columns(len(ticks)))
            assert list(trace.ticks) == list(ticks)
            assert list(trace[::2].ticks) == list(ticks[::2])
            assert list(trace[::-1].ticks) == list(ticks[::-1])

    def test_columns_must_match(self):
        trace = self.trace()
        with pytest.raises(WorkloadError):
            DemandTrace(trace.ticks, trace.cpu, trace.mem, trace.disk, trace.bw[:2])
        with pytest.raises(WorkloadError):
            DemandTrace(trace.cpu, trace.cpu, trace.mem, trace.disk, trace.bw)

    def test_request_from_a_tuple_equals_the_generated_one(self):
        spec = make_spec(profile=WorkloadProfile.SPIKY, spike_probability=0.1, lifetime_ticks=20)
        for req in generate_workload(spec):
            rebuilt = VmRequest(
                req.vm_id, req.nominal, req.arrival_tick, req.departure_tick, tuple(req.trace)
            )
            assert type(rebuilt.trace) is DemandTrace
            assert rebuilt == req
            assert hash(rebuilt) == hash(req)
            assert repr(rebuilt) == repr(req)
        empty = VmRequest("vm-0", MachineCapacity(1, 1, 1, 1), 0, None, ())
        assert len(empty.trace) == 0
        assert empty.trace == DemandTrace.from_samples([])

    def test_generated_columns_take_under_48_bytes_per_sample(self):
        trace = generate_workload(make_spec(vm_count=1, duration_ticks=1440))[0].trace
        assert len(trace) == 1440
        columns = (trace.ticks, trace.cpu, trace.mem, trace.disk, trace.bw)
        assert sum(map(sys.getsizeof, columns)) / len(trace) < 48

    def test_generated_columns_take_under_33_bytes_per_sample(self):
        trace = generate_workload(make_spec(vm_count=1, duration_ticks=1440))[0].trace
        assert len(trace) == 1440
        columns = (trace.ticks, trace.cpu, trace.mem, trace.disk, trace.bw)
        assert sum(map(sys.getsizeof, columns)) / len(trace) < 33
