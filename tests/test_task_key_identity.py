"""``task_key`` is byte-identical to the reference key scheme.

The reference below is the original key implementation, frozen here:
``_jsonable`` turns the task's configs into plain JSON data, and the key
is the SHA-256 of ``json.dumps(sort_keys=True, separators=(",", ":"))``
over it.  The executor writes the same text directly and lets each
frozen config keep its own, so every case here checks that the shortcut
never changes a key: the tasks every registry figure generates, awkward
generated configs, repeated and copied objects, and configs that
compare equal but differ in leaf type.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
from dataclasses import dataclass
from enum import Enum
from typing import Any, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.registry import FIGURE_SPECS, build_figure
from repro.config import (
    CpuConfig,
    FaultConfig,
    GmParams,
    InterruptConfig,
    MachineConfig,
    NicConfig,
    PortalsParams,
    ProgressModel,
    SwitchConfig,
    SystemConfig,
    TcpParams,
    TransportKind,
    gm_system,
    portals_system,
)
from repro.core.executor import PointTask, SweepExecutor, task_key
from repro.core.polling import PollingConfig
from repro.core.pww import PwwConfig
from repro.patterns.config import PatternConfig

SALT = "0123456789abcdef"

REGISTRY_FIGURES = tuple(f"fig{n:02d}" for n in range(4, 18)) + (
    "fig11_ci", "scale_halo", "scale_allreduce",
)


# ----------------------------------------------------------------- reference
def _jsonable(value: Any) -> Any:
    """Canonical JSON-ready form of a config value (the reference)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    return value


def reference_key(task: PointTask, salt: str = SALT) -> str:
    doc = {
        "schema": 1,
        "salt": salt,
        "kind": task.kind,
        "system": _jsonable(task.system),
        "cfg": _jsonable(task.cfg),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def assert_reference(task: PointTask) -> str:
    key = task_key(task, SALT)
    assert key == reference_key(task), task
    return key


# ---------------------------------------------------------- registry tasks
class _StubPoint:
    """Stands in for every simulated point: figures only read numbers."""

    replication = None

    def __getattr__(self, name: str) -> float:
        return 1.0


class _RecordingExecutor(SweepExecutor):
    """Records every batch handed to ``run``; simulates nothing."""

    def __init__(self) -> None:
        super().__init__()
        self.batches: List[Tuple[List[PointTask], int]] = []

    def run(self, tasks: Sequence[PointTask], reps: Optional[int] = None,
            ci_width: Optional[float] = None) -> List[Any]:
        self.batches.append((list(tasks), reps or 1))
        return [_StubPoint() for _ in tasks]


def _registry_tasks() -> List[PointTask]:
    """Every task (replicates included) the registry figures look up."""
    tasks: List[PointTask] = []
    for fig_id in REGISTRY_FIGURES:
        recorder = _RecordingExecutor()
        build_figure(FIGURE_SPECS[fig_id], per_decade=1, executor=recorder)
        assert recorder.batches, fig_id
        for batch, reps in recorder.batches:
            for task in batch:
                tasks.extend(SweepExecutor._replicate_task(task, r)
                             for r in range(reps))
    return tasks


class TestRegistryTasks:
    def test_every_registry_task_keys_like_the_reference(self):
        tasks = _registry_tasks()
        kinds = {task.kind for task in tasks}
        assert kinds == {"polling", "pww", "pattern"}
        assert any(task.system.seed != 0 for task in tasks)  # replicates
        keys = [assert_reference(task) for task in tasks]
        # Warm instance text: the second pass must agree too.
        assert [task_key(task, SALT) for task in tasks] == keys


# --------------------------------------------------------- generated configs
AWKWARD_NUMBERS = st.one_of(
    st.sampled_from([0, 1, 1.0, True, False, -0.0, 0.0, 4096, 4096.0,
                     float("inf"), float("-inf"), float("nan"), 1e-300,
                     1e300, 2 ** 64]),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
)
NAMES = st.one_of(st.sampled_from(["GM", "Portals", "é", " ", "a\"b\\"]),
                  st.text(max_size=8))


def _numbers_config(cls: type) -> st.SearchStrategy:
    """``cls`` with every field drawn from awkward numeric leaves."""
    return st.builds(cls, **{
        f.name: AWKWARD_NUMBERS for f in dataclasses.fields(cls)
    })


SYSTEMS = st.builds(
    SystemConfig,
    name=NAMES,
    machine=st.builds(
        MachineConfig,
        cpu=_numbers_config(CpuConfig),
        nic=_numbers_config(NicConfig),
        switch=_numbers_config(SwitchConfig),
        irq=_numbers_config(InterruptConfig),
        fault=_numbers_config(FaultConfig),
    ),
    transport=st.sampled_from(TransportKind),
    progress=st.sampled_from(ProgressModel),
    gm=_numbers_config(GmParams),
    portals=_numbers_config(PortalsParams),
    tcp=_numbers_config(TcpParams),
    device=NAMES,
    seed=AWKWARD_NUMBERS,
    cpus_per_node=AWKWARD_NUMBERS,
)

PATTERNS = st.builds(
    PatternConfig,
    pattern=NAMES,
    topology=NAMES,
    algorithm=NAMES,
    grid=st.lists(AWKWARD_NUMBERS, max_size=4).map(tuple),
    **{f.name: AWKWARD_NUMBERS for f in dataclasses.fields(PatternConfig)
       if f.name not in {"pattern", "topology", "algorithm", "grid"}},
)

TASKS = st.one_of(
    st.builds(PointTask, st.just("polling"), SYSTEMS,
              _numbers_config(PollingConfig)),
    st.builds(PointTask, st.just("pww"), SYSTEMS,
              _numbers_config(PwwConfig)),
    st.builds(PointTask, st.just("pattern"), SYSTEMS, PATTERNS),
)


class TestGeneratedConfigs:
    @settings(max_examples=60, deadline=None)
    @given(task=TASKS)
    def test_generated_task_keys_like_the_reference(self, task):
        key = assert_reference(task)
        assert task_key(task, SALT) == key  # served from instance text
        copy = pickle.loads(pickle.dumps(task))
        assert task_key(copy, SALT) == key

    @settings(max_examples=30, deadline=None)
    @given(system=SYSTEMS, seed=AWKWARD_NUMBERS)
    def test_replaced_system_keys_like_the_reference(self, system, seed):
        task = PointTask("polling", system, PollingConfig())
        assert_reference(task)
        replaced = dataclasses.replace(task, system=dataclasses.replace(
            system, seed=seed))
        assert_reference(replaced)


# ---------------------------------------------------------- object identity
class TestSameAndCopiedObjects:
    def test_same_object_keyed_twice(self):
        task = PointTask("pww", portals_system(), PwwConfig(msg_bytes=1))
        assert assert_reference(task) == assert_reference(task)

    def test_replace_copy_shares_keyed_sub_configs(self):
        system = gm_system()
        first = PointTask("polling", system, PollingConfig())
        assert_reference(first)
        copy = dataclasses.replace(first, system=system.replaced(seed=9))
        assert copy.system.machine is system.machine
        assert assert_reference(copy) != task_key(first, SALT)

    @pytest.mark.parametrize("keyed_before", [False, True])
    def test_pickle_round_trip(self, keyed_before):
        task = PointTask("pattern", gm_system(),
                         PatternConfig(grid=(2, 2, 1)))
        if keyed_before:
            assert_reference(task)
        copy = pickle.loads(pickle.dumps(task))
        assert copy == task
        assert assert_reference(copy) == reference_key(task)

    def test_mutated_method_config_rekeys(self):
        cfg = PollingConfig()
        task = PointTask("polling", gm_system(), cfg)
        before = assert_reference(task)
        cfg.msg_bytes += 1
        assert assert_reference(task) != before

    def test_mutable_contents_of_a_frozen_config_are_never_cached(self):
        @dataclass(frozen=True)
        class Holder:
            values: list

        holder = Holder([1, 2])
        task = PointTask("polling", gm_system(), holder)  # type: ignore
        before = assert_reference(task)
        holder.values.append(3.0)
        assert assert_reference(task) != before

    def test_slotted_frozen_config_is_re_encoded(self):
        @dataclass(frozen=True, slots=True)
        class Slotted:
            x: float = 1.0

        task = PointTask("polling", gm_system(), Slotted())  # type: ignore
        assert assert_reference(task) == assert_reference(task)


# ------------------------------------------- equal configs, distinct leaves
def _twins() -> List[Tuple[PointTask, PointTask]]:
    """Pairs of tasks that compare equal but differ in a leaf's type."""
    def nic(mtu: Any) -> SystemConfig:
        return gm_system(machine=MachineConfig(nic=NicConfig(mtu_bytes=mtu)))

    return [
        (PointTask("polling", nic(4096), PollingConfig()),
         PointTask("polling", nic(4096.0), PollingConfig())),
        (PointTask("polling", gm_system(seed=1), PollingConfig()),
         PointTask("polling", gm_system(seed=True), PollingConfig())),
        (PointTask("pww", gm_system(), PwwConfig(test_at_frac=0.0)),
         PointTask("pww", gm_system(), PwwConfig(test_at_frac=-0.0))),
        (PointTask("pattern", gm_system(), PatternConfig(grid=(2, 2))),
         PointTask("pattern", gm_system(), PatternConfig(grid=(2.0, 2)))),
    ]


class TestEqualButDistinctLeaves:
    @pytest.mark.parametrize("order", ["first-then-second",
                                       "second-then-first"])
    def test_twins_keep_distinct_keys_in_either_order(self, order):
        for first, second in _twins():
            assert first == second
            pair = [first, second]
            if order == "second-then-first":
                pair.reverse()
            keys = [assert_reference(task) for task in pair]
            assert keys[0] != keys[1]
