"""The one trace loop of :mod:`repro.sim.runner` against the three
per-mode loops it replaced (``tests/oracles/runner.py``).

Every comparison is exact: bit-equal per-instance energies, equal
miss / re-schedule counts and call instances, equal fault logs, equal
profile counters and stage call counts, and equal traced span and
event counts.
"""

import pytest

from repro.adaptive import AdaptiveConfig
from repro.adaptive import controller as controller_mod
from repro.experiments.chaos import fault_plan_catalogue
from repro.faults import DegradationPolicy
from repro.obs import Tracer
from repro.platform.distributions import ExecutionTimeDistribution
from repro.scheduling.online import set_deadline_from_makespan
from repro.scheduling.schedule import SchedulingError
from repro.sim import empirical_distribution, runner
from repro.workloads import (
    cruise_ctg,
    cruise_platform,
    drifting_trace,
    mpeg_ctg,
    mpeg_platform,
    wlan_ctg,
    wlan_platform,
)

from .oracles import runner as oracle

CONFIG = dict(window_size=10, threshold=0.1)
POLICIES = {
    "default": DegradationPolicy.default(),
    "none": DegradationPolicy.none(),
    "escalate-only": DegradationPolicy.escalate_only(),
}


APPS = {
    "cruise": (cruise_ctg, cruise_platform),
    "mpeg": (mpeg_ctg, mpeg_platform),
    "wlan": (wlan_ctg, wlan_platform),
}


def problem(app, length, train=40):
    make_ctg, make_platform = APPS[app]
    ctg, platform = make_ctg(), make_platform()
    set_deadline_from_makespan(ctg, platform, 1.6)
    trace = drifting_trace(ctg, train + length, seed=7)
    return ctg, platform, trace[train:], empirical_distribution(ctg, trace[:train])


@pytest.fixture(scope="module")
def cruise():
    return problem("cruise", 120)


@pytest.fixture(scope="module")
def wlan():
    return problem("wlan", 80)


@pytest.fixture(scope="module")
def mpeg():
    return problem("mpeg", 30)


def both(name, *args, **kwargs):
    """Run the production runner ``name`` and its oracle, each traced."""
    runs = []
    for module in (runner, oracle):
        tracer = Tracer()
        runs.append((getattr(module, name)(*args, tracer=tracer, **kwargs), tracer))
    return runs


def assert_same_run(runs):
    (new, new_tracer), (ref, ref_tracer) = runs
    assert new.energies == ref.energies
    assert new.deadline_misses == ref.deadline_misses
    assert new.reschedule_calls == ref.reschedule_calls
    assert new.call_instances == ref.call_instances
    assert (new.fault_log is None) == (ref.fault_log is None)
    if ref.fault_log is not None:
        assert new.fault_log.to_dict() == ref.fault_log.to_dict()
    assert new.profile.counters == ref.profile.counters
    assert new.profile.calls == ref.profile.calls
    assert new_tracer.span_counts() == ref_tracer.span_counts()
    assert new_tracer.event_counts() == ref_tracer.event_counts()


@pytest.mark.parametrize("app", ["cruise", "wlan"])
@pytest.mark.parametrize("speed_policy", ["continuous", "discrete", "preemptive"])
class TestFaultFree:
    def test_non_adaptive(self, request, app, speed_policy):
        ctg, platform, test, probabilities = request.getfixturevalue(app)
        assert_same_run(
            both("run_non_adaptive", ctg, platform, test, probabilities,
                 speed_policy=speed_policy)
        )

    def test_adaptive(self, request, app, speed_policy):
        ctg, platform, test, probabilities = request.getfixturevalue(app)
        runs = both(
            "run_adaptive", ctg, platform, test, probabilities,
            AdaptiveConfig(**CONFIG), speed_policy=speed_policy,
        )
        assert runs[1][0].reschedule_calls > 0
        assert_same_run(runs)


def test_short_mpeg_runs(mpeg):
    ctg, platform, test, probabilities = mpeg
    assert_same_run(both("run_non_adaptive", ctg, platform, test, probabilities))
    assert_same_run(
        both("run_adaptive", ctg, platform, test, probabilities, AdaptiveConfig(**CONFIG))
    )
    plan = fault_plan_catalogue()["overrun"]
    assert_same_run(
        both("run_faulted", ctg, platform, test, probabilities, plan,
             config=AdaptiveConfig(**CONFIG))
    )


@pytest.mark.parametrize("speed_policy", ["continuous", "preemptive"])
def test_sampled_execution_times(cruise, speed_policy):
    ctg, _, test, probabilities = cruise
    platform = cruise_platform()
    for task in sorted(ctg.tasks()):
        platform.set_execution_profile(
            task, ExecutionTimeDistribution(ratios=(0.5, 0.8, 1.0), weights=(2, 3, 5))
        )
    assert platform.has_execution_profiles
    assert_same_run(
        both("run_non_adaptive", ctg, platform, test, probabilities,
             speed_policy=speed_policy, et_seed=11)
    )
    assert_same_run(
        both("run_adaptive", ctg, platform, test, probabilities, AdaptiveConfig(**CONFIG),
             speed_policy=speed_policy, et_seed=11)
    )


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("plan", sorted(fault_plan_catalogue()))
def test_faulted_catalogue(cruise, plan, policy):
    ctg, platform, test, probabilities = cruise
    assert_same_run(
        both("run_faulted", ctg, platform, test, probabilities,
             fault_plan_catalogue()[plan], POLICIES[policy],
             config=AdaptiveConfig(**CONFIG))
    )


def test_faulted_discrete_plan_under_discrete_policy(cruise):
    ctg, platform, test, probabilities = cruise
    assert_same_run(
        both("run_faulted", ctg, platform, test, probabilities,
             fault_plan_catalogue()["discrete-dvfs"], config=AdaptiveConfig(**CONFIG),
             speed_policy="discrete")
    )


class TestFailingReschedule:
    """A re-schedule that raises propagates in a fault-free run and
    installs the full-speed fallback in a faulted one."""

    @pytest.fixture
    def failing_reschedules(self, monkeypatch):
        real = controller_mod.schedule_online
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) % 2 == 0:
                raise SchedulingError("injected re-schedule failure")
            return real(*args, **kwargs)

        def reset():
            calls.clear()

        monkeypatch.setattr(controller_mod, "schedule_online", flaky)
        return reset

    def test_fault_free_run_raises(self, cruise, failing_reschedules):
        ctg, platform, test, probabilities = cruise
        with pytest.raises(SchedulingError):
            runner.run_adaptive(ctg, platform, test, probabilities, AdaptiveConfig(**CONFIG))

    def test_faulted_run_falls_back_like_the_oracle(self, cruise, failing_reschedules):
        ctg, platform, test, probabilities = cruise
        plan = fault_plan_catalogue()["overrun"]
        runs = []
        for module in (runner, oracle):
            failing_reschedules()
            tracer = Tracer()
            result = module.run_faulted(
                ctg, platform, test, probabilities, plan,
                config=AdaptiveConfig(**CONFIG), tracer=tracer,
            )
            runs.append((result, tracer))
        assert runs[0][0].profile.counters["reschedule.fallback"] > 0
        assert_same_run(runs)
