"""Mutation tests: every corruption class maps to its diagnostic code.

Each test seeds one specific defect into a known-good cruise-controller
online schedule and asserts the checker names it with the documented
code — the checkers earn their keep by *distinguishing* failure modes,
not by flagging "something is wrong".
"""

import dataclasses

import pytest

from repro.check import check_instance, check_pathcache, verify_schedule
from repro.ctg.graph import EdgeData
from repro.ctg.minterms import CtgAnalysis
from repro.scheduling import dls_schedule, schedule_online, set_deadline_from_makespan
from repro.scheduling.baselines import load_balanced_mapping
from repro.scheduling.pathcache import build_structure, schedule_fingerprint
from repro.workloads import cruise_ctg, cruise_platform


@pytest.fixture()
def instance():
    ctg, platform = cruise_ctg(), cruise_platform()
    set_deadline_from_makespan(ctg, platform, 2.0)
    analysis = CtgAnalysis.of(ctg)
    schedule = schedule_online(ctg, platform, analysis=analysis).schedule
    return ctg, platform, schedule, analysis


def run_check(instance, **kwargs):
    ctg, platform, schedule, analysis = instance
    return check_instance(ctg, platform, schedule, analysis=analysis, **kwargs)


def test_baseline_is_clean(instance):
    report = run_check(instance)
    assert report.ok, report.render_text()


def test_dropped_pseudo_edge_breaks_serialisation(instance):
    """SCHED021 (+ the SCHED020 overlap it permits)."""
    _ctg, _platform, schedule, _analysis = instance
    graph = schedule.ctg.graph
    pseudo = [
        (src, dst)
        for src, dst, data in schedule.ctg.edges(include_pseudo=True)
        if data.pseudo
    ]
    assert pseudo, "cruise schedule should carry serialisation edges"
    hits = set()
    for src, dst in pseudo:
        payload = graph[src][dst]["data"]
        graph.remove_edge(src, dst)
        report = run_check(instance)
        hits.update(report.codes())
        graph.add_edge(src, dst, data=payload)
    assert "SCHED021" in hits
    assert "SCHED020" in hits


def test_placement_moved_to_foreign_pe(instance):
    """SCHED002 when a task is re-mapped to a PE that can't run it."""
    _ctg, _platform, schedule, _analysis = instance
    task = schedule.placement_order()[0]
    schedule.placements[task].pe = "pe99"
    report = run_check(instance)
    assert report.has("SCHED002")


def test_unplaced_task(instance):
    """SCHED001 when a placement is missing entirely."""
    _ctg, _platform, schedule, _analysis = instance
    task = schedule.placement_order()[-1]
    del schedule.placements[task]
    report = run_check(instance)
    assert report.has("SCHED001")


def test_over_stretched_speed(instance):
    """PLAT003 below the envelope, and the deadline miss it causes."""
    ctg, _platform, schedule, _analysis = instance
    longest = max(schedule.placements.values(), key=lambda p: p.wcet)
    longest.speed = 0.01
    report = run_check(instance)
    assert report.has("PLAT003")
    assert report.has("SCHED030")
    assert report.has("SCHED031")


def test_speed_above_nominal(instance):
    """PLAT003 also above 1.0 — overclocking is outside the model."""
    _ctg, _platform, schedule, _analysis = instance
    task = schedule.placement_order()[0]
    schedule.placements[task].speed = 1.25
    report = run_check(instance)
    assert report.has("PLAT003")


def test_bad_probability_sum(instance):
    """CTG012 when a distribution does not sum to 1."""
    ctg = instance[0]
    branch = ctg.branch_nodes()[0]
    labels = ctg.outcomes_of(branch)
    table = {branch: {labels[0]: 0.9, labels[1]: 0.3}}
    report = run_check(instance, probabilities=table)
    assert report.has("CTG012")


def test_probability_for_unknown_outcome(instance):
    """CTG013 when a label is not a declared outcome."""
    ctg = instance[0]
    branch = ctg.branch_nodes()[0]
    labels = ctg.outcomes_of(branch)
    table = {branch: {labels[0]: 0.5, "warp_drive": 0.5}}
    report = run_check(instance, probabilities=table)
    assert report.has("CTG013")


def test_probability_outside_unit_interval(instance):
    """CTG014 on a negative or >1 probability value."""
    ctg = instance[0]
    branch = ctg.branch_nodes()[0]
    labels = ctg.outcomes_of(branch)
    table = {branch: {labels[0]: 1.4, labels[1]: -0.4}}
    report = run_check(instance, probabilities=table)
    assert report.has("CTG014")


def test_overbooked_link(instance):
    """LINK005 when two co-occurring transfers overlap on one link."""
    _ctg, _platform, schedule, _analysis = instance
    booking = schedule.comm_bookings[0]
    rival = next(
        b
        for b in schedule.comm_bookings
        if b is not booking
        and not schedule.are_exclusive(b.src_task, booking.src_task)
    )
    clash = dataclasses.replace(
        rival,
        src_pe=booking.src_pe,
        dst_pe=booking.dst_pe,
        start=booking.start,
        duration=booking.duration,
    )
    schedule.comm_bookings.append(clash)
    report = run_check(instance)
    assert report.has("LINK005")


def test_booking_endpoints_disagree_with_mapping(instance):
    """LINK002 when a booking's PEs don't match the task mapping."""
    _ctg, _platform, schedule, _analysis = instance
    booking = schedule.comm_bookings[0]
    swapped = dataclasses.replace(
        booking, src_pe=booking.dst_pe, dst_pe=booking.src_pe
    )
    schedule.comm_bookings[0] = swapped
    report = run_check(instance)
    assert report.has("LINK002")


def test_booking_on_missing_link(instance):
    """LINK001 when a transfer is booked PE-to-itself (no link)."""
    _ctg, _platform, schedule, _analysis = instance
    booking = schedule.comm_bookings[0]
    schedule.comm_bookings[0] = dataclasses.replace(
        booking, dst_pe=booking.src_pe
    )
    report = run_check(instance)
    assert report.has("LINK001")


def test_booked_duration_disagrees_with_bandwidth(instance):
    """LINK003 (warning) when the booked duration is off."""
    _ctg, _platform, schedule, _analysis = instance
    booking = schedule.comm_bookings[0]
    schedule.comm_bookings[0] = dataclasses.replace(
        booking, duration=booking.duration * 3.0
    )
    report = run_check(instance)
    assert report.has("LINK003")


def test_injected_cycle(instance):
    """CTG001; schedule-level stages are skipped on a cyclic graph."""
    _ctg, _platform, schedule, _analysis = instance
    order = schedule.ctg.topological_order()
    schedule.ctg.graph.add_edge(order[-1], order[0], data=EdgeData(pseudo=True))
    ctg, platform, _schedule, analysis = instance
    report = check_instance(
        schedule.ctg, platform, schedule, analysis=analysis
    )
    assert report.has("CTG001")
    assert "schedule" not in report.checks_run
    assert "feasibility" not in report.checks_run


def test_shrunk_deadline(instance):
    """SCHED030 + the exact minterms via SCHED031."""
    _ctg, _platform, schedule, _analysis = instance
    schedule.ctg.deadline = schedule.makespan() / 2.0
    report = verify_schedule(schedule)
    assert report.has("SCHED030")
    assert report.has("SCHED031")
    overshoot = report.by_code("SCHED031")
    assert all(d.subject for d in overshoot)


def test_stale_path_cache_structure(instance):
    """CACHE001 when the cached task universe no longer matches."""
    _ctg, _platform, schedule, analysis = instance
    key = schedule_fingerprint(schedule)
    structure = analysis.path_cache[key]
    analysis.path_cache[key] = dataclasses.replace(
        structure, task_list=structure.task_list[:-1]
    )
    findings = check_pathcache(schedule, analysis)
    assert any(d.code == "CACHE001" for d in findings)


def test_path_cache_structure_of_another_schedule(instance):
    """CACHE001 on a cached path when the entry was built for a schedule
    with other pseudo edges (same tasks and real edges)."""
    ctg, platform, schedule, analysis = instance
    other = dls_schedule(
        ctg, platform, analysis=analysis, fixed_mapping=load_balanced_mapping(ctg, platform)
    )
    assert schedule_fingerprint(other) != schedule_fingerprint(schedule)
    analysis.path_cache[schedule_fingerprint(schedule)] = build_structure(
        other, analysis.scenarios
    )
    findings = check_pathcache(schedule, analysis)
    assert [d.code for d in findings] == ["CACHE001"]
    assert findings[0].subject.startswith("path[")
    assert "which is not in the scheduled graph" in findings[0].message


def test_path_cache_scenario_mismatch(instance):
    """CACHE002 when the cached scenario tuple is foreign."""
    _ctg, _platform, schedule, analysis = instance
    key = schedule_fingerprint(schedule)
    structure = analysis.path_cache[key]
    analysis.path_cache[key] = dataclasses.replace(
        structure, scenarios=structure.scenarios[:-1]
    )
    findings = check_pathcache(schedule, analysis)
    assert any(d.code == "CACHE002" for d in findings)
