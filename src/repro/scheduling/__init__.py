"""Scheduling core: modified DLS, stretching heuristic, NLP baseline."""

from .annealing import AnnealingConfig, AnnealingResult, anneal_mapping
from .baselines import BaselineResult, reference_algorithm_1, reference_algorithm_2
from .dls import dls_schedule, static_levels
from .gantt import render_gantt, render_listing
from .heft import heft_mapping, heft_schedule, heft_with_nlp, upward_ranks
from .inspection import inspect, overlap_report, scenario_report, slack_utilisation
from .modal import ModalSpeedTable, build_modal_table, modal_instance_energy
from .nlp import NlpReport, nlp_stretch_schedule
from .online import (
    OnlineResult,
    minimal_makespan,
    schedule_online,
    set_deadline_from_makespan,
)
from .policies import (
    CONTINUOUS_POLICY,
    DEFAULT_SPEED_LEVELS,
    SPEED_POLICIES,
    ContinuousSpeedPolicy,
    DiscreteSpeedPolicy,
    EapsSpeedPolicy,
    PreemptiveSpeedPolicy,
    SpeedPolicy,
    resolve_speed_policy,
)
from .pathcache import (
    PathStructure,
    build_structure,
    freeze_probabilities,
    schedule_fingerprint,
    structure_for,
)
from .schedule import CommBooking, Placement, Schedule, SchedulingError
from .stretching import StretchReport, stretch_schedule

__all__ = [
    "AnnealingConfig",
    "AnnealingResult",
    "anneal_mapping",
    "BaselineResult",
    "reference_algorithm_1",
    "reference_algorithm_2",
    "dls_schedule",
    "static_levels",
    "heft_mapping",
    "heft_schedule",
    "heft_with_nlp",
    "upward_ranks",
    "render_gantt",
    "render_listing",
    "ModalSpeedTable",
    "build_modal_table",
    "modal_instance_energy",
    "inspect",
    "overlap_report",
    "scenario_report",
    "slack_utilisation",
    "NlpReport",
    "nlp_stretch_schedule",
    "OnlineResult",
    "minimal_makespan",
    "schedule_online",
    "set_deadline_from_makespan",
    "CONTINUOUS_POLICY",
    "DEFAULT_SPEED_LEVELS",
    "SPEED_POLICIES",
    "ContinuousSpeedPolicy",
    "DiscreteSpeedPolicy",
    "EapsSpeedPolicy",
    "PreemptiveSpeedPolicy",
    "SpeedPolicy",
    "resolve_speed_policy",
    "PathStructure",
    "build_structure",
    "freeze_probabilities",
    "schedule_fingerprint",
    "structure_for",
    "CommBooking",
    "Placement",
    "Schedule",
    "SchedulingError",
    "StretchReport",
    "stretch_schedule",
]
