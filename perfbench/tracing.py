"""Per-layer tracing of one simulation, from outside the program.

Two pieces wrap the public policy interface; nothing in ``dcsim`` is patched:

* :class:`TracedPolicy` delegates to a real policy and times ``allocate``,
  every ``next()`` of the ``rebalance`` generator, ``notify_departure`` and
  ``migration_landing_ok``; it counts the actions yielded by kind and reason.
* :class:`TimedView` is the cluster view the inner policy sees: it forwards
  each public view call to the simulation, timing and counting it.  It offers
  no engine state beyond those calls.

Engine time is what remains of ``run()`` once the time inside policy calls
is taken out.  Simulated statistics are unchanged by tracing; the benchmark
asserts that.
"""

from __future__ import annotations

from time import perf_counter

from dcsim.policies.base import ActionKind, SchedulerPolicy

#: The public cluster-view methods policies call (``Simulation`` members).
VIEW_METHODS = (
    "all_machines",
    "machine",
    "running_machines",
    "standby_machines",
    "vm_host",
    "vm_in_flight",
    "has_inbound",
    "vm_nominal",
    "vm_window_mean",
    "vm_rv_on",
    "vm_nominal_rv_on",
    "machine_rv",
    "machine_free",
    "nominal_free",
    "cpu_used_abs",
)
#: Public view properties, counted like calls.
VIEW_PROPERTIES = ("current_tick", "power_model")


class Trace:
    """Counters and timers of one traced simulation.

    Each ``[calls, seconds]`` pair is a cell that the wrappers update in place.
    """

    def __init__(self) -> None:
        self.view = {name: [0, 0.0] for name in VIEW_METHODS + VIEW_PROPERTIES}
        self.view_s = [0.0]  # running total over every view cell
        self.allocate = [0, 0.0]
        self.rebalance = [0, 0.0]  # calls = ticks; seconds over every next()
        self.rebalance_view_s = 0.0
        self.departure = [0, 0.0]
        self.landing = [0, 0.0]
        self.actions: dict[tuple[str, str], int] = {}
        self.tick_starts: list[float] = []
        self.vm_ticks = 0

    def policy_s(self) -> float:
        return self.allocate[1] + self.rebalance[1] + self.departure[1] + self.landing[1]

    def tick_intervals_us(self) -> list[float]:
        starts = self.tick_starts
        return [(b - a) * 1e6 for a, b in zip(starts, starts[1:])]


def _timed(fn, cell, total):
    def call(*args):
        t0 = perf_counter()
        result = fn(*args)
        dt = perf_counter() - t0
        cell[0] += 1
        cell[1] += dt
        total[0] += dt
        return result

    return call


def _timed_property(name):
    def get(self):
        t0 = perf_counter()
        result = getattr(self._sim, name)
        dt = perf_counter() - t0
        cell = self._trace.view[name]
        cell[0] += 1
        cell[1] += dt
        self._trace.view_s[0] += dt
        return result

    return property(get)


class TimedView:
    """Read-only cluster view that times and counts each call it forwards."""

    current_tick = _timed_property("current_tick")
    power_model = _timed_property("power_model")

    def __init__(self, sim, trace: Trace) -> None:
        self._sim = sim
        self._trace = trace
        for name in VIEW_METHODS:
            setattr(self, name, _timed(getattr(sim, name), trace.view[name], trace.view_s))


class TracedPolicy(SchedulerPolicy):
    """Delegating policy that records where policy and view time goes."""

    def __init__(self, inner: SchedulerPolicy, trace: Trace) -> None:
        super().__init__()
        self.inner = inner
        self.trace = trace
        self.name = inner.name
        self.stats = inner.stats  # the engine reports the inner policy's counters
        self.usage_window_seconds = inner.usage_window_seconds
        self.default_rv = inner.default_rv
        self.utilization_weights = inner.utilization_weights
        self._sim = None
        self._view = None

    @property
    def breach_thresholds(self):
        return self.inner.breach_thresholds

    def _proxy(self, sim) -> TimedView:
        if sim is not self._sim:
            self._sim = sim
            self._view = TimedView(sim, self.trace)
        return self._view

    def allocate(self, vm_id, view):
        proxy = self._proxy(view)
        t0 = perf_counter()
        decision = self.inner.allocate(vm_id, proxy)
        cell = self.trace.allocate
        cell[0] += 1
        cell[1] += perf_counter() - t0
        return decision

    def rebalance(self, view, tick):
        tr = self.trace
        tr.tick_starts.append(perf_counter())
        # Every tick calls rebalance once, right after arbitration, so the
        # VMs hosted now are the VMs whose demand was simulated this tick.
        tr.vm_ticks += sum(len(pm.hosted_vm_ids) for pm in view.all_machines())
        tr.rebalance[0] += 1
        proxy = self._proxy(view)
        view_s = tr.view_s
        t0 = perf_counter()
        v0 = view_s[0]
        actions = iter(self.inner.rebalance(proxy, tick))
        while True:
            try:
                action = next(actions)
            except StopIteration:
                tr.rebalance[1] += perf_counter() - t0
                tr.rebalance_view_s += view_s[0] - v0
                return
            tr.rebalance[1] += perf_counter() - t0
            tr.rebalance_view_s += view_s[0] - v0
            key = (action.kind.value, action.reason)
            tr.actions[key] = tr.actions.get(key, 0) + 1
            yield action
            t0 = perf_counter()
            v0 = view_s[0]

    def notify_departure(self, vm_id, machine_id, view, tick):
        t0 = perf_counter()
        self.inner.notify_departure(vm_id, machine_id, self._proxy(view), tick)
        cell = self.trace.departure
        cell[0] += 1
        cell[1] += perf_counter() - t0

    def migration_landing_ok(self, vm_id, machine_id, view):
        t0 = perf_counter()
        ok = self.inner.migration_landing_ok(vm_id, machine_id, self._proxy(view))
        cell = self.trace.landing
        cell[0] += 1
        cell[1] += perf_counter() - t0
        return ok


def standby_actions(trace: Trace) -> int:
    kind = ActionKind.STANDBY_MACHINE.value
    return sum(n for (k, _), n in trace.actions.items() if k == kind)
