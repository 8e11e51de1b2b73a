"""Struct-of-arrays view of one scheduled CTG on its platform.

The object layer (:class:`~repro.ctg.graph.ConditionalTaskGraph`,
:class:`~repro.scheduling.schedule.Schedule`) is built for clarity: one
Python object per task, dict lookups per edge, a fresh ``Scenario``
walk per question.  That is the clearest form to replay one instance
in, but it bounds how many *instances* per second the stack can
process — the batch kernels in :mod:`repro.batch.kernels` evaluate
thousands of sampled instances per numpy call, and they need the graph
and the schedule as flat arrays, not as objects.

:class:`BatchSchedule` is that flat form:

* a **task table** in topological order (the executor's replay order)
  with the placement vectors — PE index, WCET, nominal energy, speed,
  placement-order index;
* the **in-edge adjacency in CSR form** (``in_ptr``/``in_src`` plus
  per-edge pseudo flags, condition branch/label indices and
  communication delays), filled from the schedule's
  :class:`~repro.scheduling.replay.ReplayPlan` in its edge order;
* the **scenario (minterm) tables** — per-scenario task activation,
  branch assignments, per-edge applicability, communication energy —
  and the same membership **packed into int bitmasks** per task
  (``task_scenario_masks``), the flat twin of the scalar stretching
  oracle's ``_PathState.scenario_mask`` (for paths, see
  :meth:`PathStructure.membership_masks
  <repro.scheduling.pathcache.PathStructure.membership_masks>`);
* the **or-node decider table** (CSR, also from the plan) for the
  paper's Example-1 rule: an or-join waits for every active upstream
  fork that could decide one of its inputs.

Conversion is lossless: :meth:`BatchSchedule.from_ctg` captures a
schedule, :meth:`BatchSchedule.to_schedule` rebuilds an equivalent
:class:`~repro.scheduling.schedule.Schedule` bit-for-bit (same graph
object, same placement fields, same bookings) — the round-trip is
property-tested.  The arrays never duplicate *mutable* scheduling
state: speeds are copied at capture time, so a ``BatchSchedule`` is a
snapshot, exactly like the per-scenario tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ctg.minterms import CtgAnalysis, Scenario, enumerate_scenarios
from ..platform.mpsoc import Platform
from ..scheduling.replay import ReplayPlan
from ..scheduling.schedule import Placement, Schedule


@dataclass
class BatchSchedule:
    """Array-native snapshot of one :class:`Schedule` (see module doc)."""

    #: the scheduled graph (with pseudo edges) and platform, by reference
    ctg: object
    platform: Platform
    #: tasks in topological order — the row/column space of every array
    tasks: Tuple[str, ...]
    task_index: Dict[str, int]
    # -- CSR in-edge adjacency (replay-plan edge order per task) --------
    in_ptr: np.ndarray  #: (T+1,) segment starts into the edge arrays
    in_src: np.ndarray  #: (E,) source task index of each in-edge
    in_pseudo: np.ndarray  #: (E,) bool — same-PE serialisation edge
    in_branch: np.ndarray  #: (E,) guarding branch index, −1 unguarded
    in_label: np.ndarray  #: (E,) guarding label index, −1 unguarded
    in_delay: np.ndarray  #: (E,) cross-PE communication delay
    # -- branch tables ---------------------------------------------------
    branches: Tuple[str, ...]
    branch_labels: Tuple[Tuple[str, ...], ...]
    # -- or-node deciders (CSR over tasks) -------------------------------
    dec_ptr: np.ndarray  #: (T+1,)
    dec_src: np.ndarray  #: task index of each deciding branch fork
    # -- scenario (minterm) tables ---------------------------------------
    scenarios: Tuple[Scenario, ...]
    active: np.ndarray  #: (S, T) bool — task activation per scenario
    assignment: np.ndarray  #: (S, B) chosen label index, −1 not executed
    edge_scenario: np.ndarray  #: (E, S) bool — edge binds under scenario
    comm_energy: np.ndarray  #: (S,) communication energy per scenario
    #: per task, the scenarios it is active under, packed into one int
    task_scenario_masks: Tuple[int, ...]
    # -- placement vectors ------------------------------------------------
    pe_names: Tuple[str, ...]
    pe_of: np.ndarray  #: (T,) index into :attr:`pe_names`
    wcet: np.ndarray  #: (T,) nominal-speed WCET on the mapped PE
    nominal_energy: np.ndarray  #: (T,) energy at nominal voltage
    speed: np.ndarray  #: (T,) DVFS speed at capture time
    order_index: np.ndarray  #: (T,) placement (stretching sweep) order
    #: deadline of the captured graph (0 = none)
    deadline: float
    #: exclusion table and bookings carried through for lossless rebuild
    exclusions: Dict[str, frozenset] = field(default_factory=dict)
    comm_bookings: Tuple = ()

    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        """Number of tasks (the T axis)."""
        return len(self.tasks)

    @property
    def n_scenarios(self) -> int:
        """Number of minterms (the S axis)."""
        return len(self.scenarios)

    @property
    def durations(self) -> np.ndarray:
        """Per-task execution time at the captured speeds."""
        return self.wcet / self.speed

    def task_energies(self) -> np.ndarray:
        """Per-task DVFS-scaled energy at the captured speeds."""
        exponent = self.platform.dvfs.exponent
        return self.nominal_energy * self.speed**exponent

    # ------------------------------------------------------------------
    @classmethod
    def from_ctg(
        cls,
        schedule: Schedule,
        analysis: Optional[CtgAnalysis] = None,
        scenarios: Optional[Sequence[Scenario]] = None,
    ) -> "BatchSchedule":
        """Capture a scheduled CTG into the struct-of-arrays form.

        ``analysis`` (or an explicit ``scenarios`` sequence) supplies
        the minterm enumeration; omitted, it is derived from the
        schedule's graph without pseudo edges — identical to what the
        stretching stage and the executor resolve against.
        """
        ctg = schedule.ctg
        platform = schedule.platform
        if scenarios is None:
            if analysis is not None:
                scenarios = analysis.scenarios
            else:
                scenarios = enumerate_scenarios(ctg.without_pseudo_edges())
        scenarios = tuple(scenarios)

        plan = ReplayPlan.of(schedule)
        tasks = plan.order
        task_index = {task: i for i, task in enumerate(tasks)}
        branches = tuple(ctg.branch_nodes())
        branch_index = {b: i for i, b in enumerate(branches)}
        branch_labels = tuple(tuple(ctg.outcomes_of(b)) for b in branches)
        label_index = [
            {label: i for i, label in enumerate(labels)} for labels in branch_labels
        ]

        in_ptr = np.zeros(len(tasks) + 1, dtype=np.intp)
        src_rows: List[int] = []
        pseudo_rows: List[bool] = []
        branch_rows: List[int] = []
        label_rows: List[int] = []
        delay_rows: List[float] = []
        dec_ptr = np.zeros(len(tasks) + 1, dtype=np.intp)
        dec_rows: List[int] = []
        for t, task in enumerate(tasks):
            for src, delay, branch, label in plan.inputs[task]:
                src_rows.append(task_index[src])
                pseudo_rows.append(delay is None)
                delay_rows.append(0.0 if delay is None else delay)
                if branch is None:
                    branch_rows.append(-1)
                    label_rows.append(-1)
                else:
                    b = branch_index[branch]
                    branch_rows.append(b)
                    label_rows.append(label_index[b][label])
            in_ptr[t + 1] = len(src_rows)
            dec_rows.extend(task_index[b] for b in plan.deciders.get(task, ()))
            dec_ptr[t + 1] = len(dec_rows)

        n_scenarios = len(scenarios)
        active = np.zeros((n_scenarios, len(tasks)), dtype=bool)
        assignment = np.full((n_scenarios, len(branches)), -1, dtype=np.intp)
        for s, scenario in enumerate(scenarios):
            # setting boolean flags is order-independent, so unsorted
            # set iteration is safe here
            for task in scenario.active:
                idx = task_index.get(task)
                if idx is not None:
                    active[s, idx] = True
            for branch, label in scenario.product.assignment.items():
                b = branch_index[branch]
                assignment[s, b] = label_index[b][label]

        # Per-edge scenario applicability: the edge binds in a scenario
        # iff its source is active there and (pseudo edges aside) the
        # scenario chose the guarding outcome — the per-edge test of
        # ``ReplayPlan.start`` hoisted out of the replay loop.
        n_edges = len(src_rows)
        edge_scenario = np.zeros((n_edges, n_scenarios), dtype=bool)
        src_arr = np.asarray(src_rows, dtype=np.intp)
        branch_arr = np.asarray(branch_rows, dtype=np.intp)
        label_arr = np.asarray(label_rows, dtype=np.intp)
        pseudo_arr = np.asarray(pseudo_rows, dtype=bool)
        for s in range(n_scenarios):
            ok = active[s, src_arr]
            guarded = branch_arr >= 0
            chosen = np.zeros(n_edges, dtype=bool)
            if guarded.any():
                chosen[guarded] = (
                    assignment[s, branch_arr[guarded]] == label_arr[guarded]
                )
            edge_scenario[:, s] = ok & (pseudo_arr | ~guarded | chosen)

        comm_energy = np.zeros(n_scenarios, dtype=float)
        for s, scenario in enumerate(scenarios):
            total = 0.0
            for src, dst, data in ctg.edges(include_pseudo=False):
                if src not in scenario.active or dst not in scenario.active:
                    continue
                if data.condition is not None and (
                    scenario.product.label_for(data.condition.branch)
                    != data.condition.label
                ):
                    continue
                total += platform.comm_energy(
                    schedule.pe_of(src), schedule.pe_of(dst), data.comm_kbytes
                )
            comm_energy[s] = total

        # plain Python ints: 1 << numpy-intp overflows past 63 scenarios
        task_scenario_masks = tuple(
            sum(1 << int(s) for s in np.nonzero(active[:, t])[0])
            for t in range(len(tasks))
        )

        pe_names = tuple(platform.pe_names)
        pe_index = {name: i for i, name in enumerate(pe_names)}
        pe_of = np.empty(len(tasks), dtype=np.intp)
        wcet = np.empty(len(tasks), dtype=float)
        nominal_energy = np.empty(len(tasks), dtype=float)
        speed = np.empty(len(tasks), dtype=float)
        order_index = np.empty(len(tasks), dtype=np.intp)
        for t, task in enumerate(tasks):
            placement = schedule.placement(task)
            pe_of[t] = pe_index[placement.pe]
            wcet[t] = placement.wcet
            nominal_energy[t] = placement.nominal_energy
            speed[t] = placement.speed
            order_index[t] = placement.order_index

        return cls(
            ctg=ctg,
            platform=platform,
            tasks=tasks,
            task_index=task_index,
            in_ptr=in_ptr,
            in_src=src_arr,
            in_pseudo=pseudo_arr,
            in_branch=branch_arr,
            in_label=label_arr,
            in_delay=np.asarray(delay_rows, dtype=float),
            branches=branches,
            branch_labels=branch_labels,
            dec_ptr=dec_ptr,
            dec_src=np.asarray(dec_rows, dtype=np.intp),
            scenarios=scenarios,
            active=active,
            assignment=assignment,
            edge_scenario=edge_scenario,
            comm_energy=comm_energy,
            task_scenario_masks=task_scenario_masks,
            pe_names=pe_names,
            pe_of=pe_of,
            wcet=wcet,
            nominal_energy=nominal_energy,
            speed=speed,
            order_index=order_index,
            deadline=ctg.deadline,
            exclusions=dict(schedule.exclusions),
            comm_bookings=tuple(schedule.comm_bookings),
        )

    def to_schedule(self) -> Schedule:
        """Rebuild an equivalent object-layer :class:`Schedule`.

        The rebuilt schedule shares the captured graph and platform and
        reconstructs every placement field from the arrays — the
        ``from_ctg`` → ``to_schedule`` round-trip is bit-exact (same
        floats, same order indices, same bookings), which the property
        suite asserts.
        """
        schedule = Schedule(self.ctg, self.platform, self.exclusions)
        for t, task in enumerate(self.tasks):
            schedule.placements[task] = Placement(
                task=task,
                pe=self.pe_names[int(self.pe_of[t])],
                wcet=float(self.wcet[t]),
                nominal_energy=float(self.nominal_energy[t]),
                speed=float(self.speed[t]),
                order_index=int(self.order_index[t]),
            )
        schedule.comm_bookings.extend(self.comm_bookings)
        schedule._order_counter = len(self.tasks)
        return schedule
