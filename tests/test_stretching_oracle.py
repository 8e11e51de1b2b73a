"""``stretch_schedule`` against the scalar oracle in ``tests/oracles``.

The production stretching stage (vectorized, path-cached) and the
original per-path walk (``tests/oracles/stretching.py``) must agree on
generated instances under every combination of the four stretching
knobs — ``probability_weighted``, ``max_passes``, ``share_exponent``
and ``prune_zero_probability`` — with distributions that put zero
probability on some outcomes (and, for the prune fallback, on all of
them), on continuous and discrete-level platforms.  Agreement means
the same speeds within the shared speed tolerance, the same path count,
the same prune-fallback count and the same ``SchedulingError`` message
when the call fails.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.check.tolerances import EXACT_EPS, SPEED_EPS, TIME_EPS
from repro.ctg import CtgAnalysis
from repro.profiling import StageProfiler
from repro.scheduling import (
    SchedulingError,
    dls_schedule,
    set_deadline_from_makespan,
    stretch_schedule,
)
from repro.workloads import mpeg_ctg, mpeg_platform

from .instances import build_instance, random_distribution
from .oracles.stretching import reference_stretch

#: frequency table of the discrete-level platform variant
LEVELS = (0.25, 0.5, 0.75, 1.0)

#: every combination of (probability_weighted, max_passes,
#: share_exponent, prune_zero_probability)
KNOBS = [
    pytest.param(
        weighted, passes, exponent, prune,
        id=(
            f"{'weighted' if weighted else 'uniform'}-{passes}pass-"
            f"{'linear' if exponent == 1.0 else 'root'}-"
            f"{'prune' if prune else 'keep'}"
        ),
    )
    for weighted, passes, exponent, prune in itertools.product(
        (True, False), (1, 3), (1.0, 1.0 / 3.0), (True, False)
    )
]

instances = dict(
    nodes=st.integers(10, 22),
    branches=st.integers(1, 3),
    category=st.sampled_from([1, 2]),
    pes=st.integers(2, 3),
    seed=st.integers(0, 300),
    factor=st.floats(1.05, 2.0),
    discrete=st.booleans(),
)


def _instance(nodes, branches, category, pes, seed, factor, discrete):
    try:
        ctg, platform = build_instance(
            nodes, branches, category, pes, seed, factor,
            speed_levels=LEVELS if discrete else None,
        )
    except ValueError:
        assume(False)
    return ctg, platform, CtgAnalysis.of(ctg)


def _distribution(ctg, dist_seed, modes):
    """A distribution whose i-th branch is random, one-sided (a single
    outcome carries all the mass) or dead (every outcome 0), by
    ``modes[i % len(modes)]``."""
    rng = np.random.default_rng(dist_seed)
    dist = random_distribution(ctg, rng)
    for i, branch in enumerate(ctg.branch_nodes()):
        mode = modes[i % len(modes)]
        labels = ctg.outcomes_of(branch)
        if mode == "one-sided":
            chosen = labels[int(rng.integers(len(labels)))]
            dist[branch] = {label: float(label == chosen) for label in labels}
        elif mode == "dead":
            dist[branch] = {label: 0.0 for label in labels}
    return dist


def _run(stretch, ctg, platform, dls_analysis, probabilities, **knobs):
    """Map with DLS, stretch with ``stretch``; return (schedule, report,
    error message, profiler)."""
    schedule = dls_schedule(ctg, platform, analysis=dls_analysis)
    profiler = StageProfiler()
    try:
        report = stretch(schedule, probabilities, profiler=profiler, **knobs)
    except SchedulingError as exc:
        return schedule, None, str(exc), profiler
    return schedule, report, None, profiler


def _compare(ctg, platform, analysis, probabilities, **knobs):
    """Run both implementations and assert they agree; returns the
    production profiler."""
    sched_p, report_p, error_p, prof_p = _run(
        stretch_schedule, ctg, platform, analysis, probabilities,
        analysis=analysis, **knobs,
    )
    sched_o, report_o, error_o, prof_o = _run(
        reference_stretch, ctg, platform, analysis, probabilities, **knobs
    )
    assert error_p == error_o
    fallback = prof_p.counter("stretch.prune_fallback")
    assert fallback == prof_o.counter("stretch.prune_fallback")
    if error_p is not None:
        return prof_p
    assert report_p.path_count == report_o.path_count
    for task, placement in sched_o.placements.items():
        assert sched_p.placement(task).speed == pytest.approx(
            placement.speed, rel=SPEED_EPS, abs=EXACT_EPS
        ), task
        assert report_p.slack_given.get(task, 0.0) == pytest.approx(
            report_o.slack_given.get(task, 0.0), abs=TIME_EPS
        ), task
    return prof_p


@pytest.mark.parametrize(
    "probability_weighted, max_passes, share_exponent, prune", KNOBS
)
@settings(max_examples=6, deadline=None)
@given(
    **instances,
    dist_seed=st.integers(0, 1000),
    modes=st.lists(
        st.sampled_from(["random", "one-sided", "dead"]), min_size=1, max_size=3
    ),
    deadline_scale=st.sampled_from([None, None, 0.5, 0.0]),
)
def test_stretch_schedule_matches_oracle(
    probability_weighted, max_passes, share_exponent, prune,
    nodes, branches, category, pes, seed, factor, discrete,
    dist_seed, modes, deadline_scale,
):
    ctg, platform, analysis = _instance(
        nodes, branches, category, pes, seed, factor, discrete
    )
    deadline = None if deadline_scale is None else ctg.deadline * deadline_scale
    _compare(
        ctg, platform, analysis, _distribution(ctg, dist_seed, modes),
        deadline=deadline,
        probability_weighted=probability_weighted,
        max_passes=max_passes,
        share_exponent=share_exponent,
        prune_zero_probability=prune,
    )


@settings(max_examples=15, deadline=None)
@given(
    **instances,
    probability_weighted=st.booleans(),
    max_passes=st.sampled_from([1, 3]),
)
def test_prune_fallback_matches_oracle(
    nodes, branches, category, pes, seed, factor, discrete,
    probability_weighted, max_passes,
):
    """Every outcome at probability 0 prunes every path, so both
    implementations fall back to unpruned stretching."""
    ctg, platform, analysis = _instance(
        nodes, branches, category, pes, seed, factor, discrete
    )
    dead = _distribution(ctg, 0, ["dead"])
    assume(all(s.probability(dead) == 0.0 for s in analysis.scenarios))
    profiler = _compare(
        ctg, platform, analysis, dead,
        probability_weighted=probability_weighted,
        max_passes=max_passes,
        prune_zero_probability=True,
    )
    assert profiler.counter("stretch.prune_fallback") == 1


def _mpeg():
    ctg, platform = mpeg_ctg(), mpeg_platform()
    set_deadline_from_makespan(ctg, platform, 1.3)
    return ctg, platform, CtgAnalysis.of(ctg)


def test_mpeg_matches_oracle_per_distribution():
    """MPEG has 67 scenarios — past the 63 a 64-bit mask can hold."""
    ctg, platform, analysis = _mpeg()
    rng = np.random.default_rng(21)
    for _ in range(4):
        _compare(ctg, platform, analysis, random_distribution(ctg, rng))


def test_mpeg_matches_oracle_multi_pass():
    ctg, platform, analysis = _mpeg()
    rng = np.random.default_rng(33)
    for _ in range(2):
        _compare(
            ctg, platform, analysis, random_distribution(ctg, rng), max_passes=3
        )
