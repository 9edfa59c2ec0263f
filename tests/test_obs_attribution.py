"""Critical-path attribution (`repro.obs.attribution`).

The load-bearing assertions here are the PR's acceptance criteria: per
sweep point, cause seconds sum to the measured wait time exactly, and on
the GM stack with large messages the dominant cause is the rendezvous
progress stall — the paper's §4 explanation, measured.
"""

import math

import pytest

from repro.config import gm_system, portals_system
from repro.core.executor import PointTask, SweepExecutor
from repro.core.polling import PollingConfig
from repro.core.pww import PwwConfig, run_pww
from repro.obs import (
    Observer,
    attribute_events,
    attribute_window,
    format_attribution,
    stitch,
    use_observer,
)
from repro.obs.attribution import (
    ALL_CAUSES,
    CAUSE_HOST_COPY,
    CAUSE_OTHER,
    CAUSE_POLL,
    CAUSE_RENDEZVOUS,
    CAUSE_WIRE,
)


def _traced_tasks(tasks):
    obs = Observer()
    with use_observer(obs):
        with SweepExecutor(jobs=1, cache=None) as ex:
            points = ex.run(tasks)
    return points, obs.events()


@pytest.fixture(scope="module")
def gm_large():
    """One GM PWW point, 100 KB messages, long work phase (paper Fig 11)."""
    points, events = _traced_tasks([
        PointTask("pww", gm_system(),
                  PwwConfig(msg_bytes=100 * 1024,
                            work_interval_iters=1_000_000)),
    ])
    return points[0], attribute_events(events)


def test_causes_sum_to_measured_wait(gm_large):
    """Acceptance: the decomposition sums to the measured wait time."""
    point, atts = gm_large
    (att,) = atts
    cfg_batches = PwwConfig().batches
    assert att.windows == cfg_batches
    measured_total = point.wait_s * cfg_batches
    assert math.isclose(att.total_s, measured_total, rel_tol=1e-9)
    assert math.isclose(sum(att.causes.values()), att.total_s, rel_tol=1e-9)


def test_gm_large_dominated_by_rendezvous_stall(gm_large):
    """Acceptance: GM + large messages → rendezvous progress stall (§4)."""
    _, atts = gm_large
    (att,) = atts
    assert att.dominant == CAUSE_RENDEZVOUS
    assert att.fractions()[CAUSE_RENDEZVOUS] > 0.5


def test_fractions_sum_to_one(gm_large):
    _, atts = gm_large
    (att,) = atts
    assert math.isclose(sum(att.fractions().values()), 1.0, rel_tol=1e-9)


def test_point_metadata_from_markers(gm_large):
    _, atts = gm_large
    (att,) = atts
    assert att.method == "pww"
    assert att.system == "GM"
    assert att.msg_bytes == 100 * 1024
    assert att.interval_iters == 1_000_000


def test_portals_not_blamed_on_rendezvous():
    """Portals' (small) waits are wire time, not Progress-Rule fallout."""
    _, events = _traced_tasks([
        PointTask("pww", portals_system(),
                  PwwConfig(msg_bytes=100 * 1024,
                            work_interval_iters=100_000)),
    ])
    (att,) = attribute_events(events)
    if att.total_s > 0:
        assert att.fractions().get(CAUSE_WIRE, 0.0) > \
            att.fractions().get(CAUSE_RENDEZVOUS, 0.0)


def test_gm_eager_waits_are_host_copy():
    """Sub-threshold messages skip the handshake; their completion delay
    is the bounce-buffer copy on the host CPU."""
    _, events = _traced_tasks([
        PointTask("pww", gm_system(),
                  PwwConfig(msg_bytes=8, work_interval_iters=1_000_000)),
    ])
    (att,) = attribute_events(events)
    assert att.total_s > 0
    assert att.dominant == CAUSE_HOST_COPY


def test_polling_loss_decomposition():
    _, events = _traced_tasks([
        PointTask("polling", gm_system(),
                  PollingConfig(msg_bytes=100 * 1024,
                                poll_interval_iters=10_000)),
    ])
    (att,) = attribute_events(events)
    assert att.method == "polling"
    assert att.total_s > 0
    assert math.isclose(sum(att.causes.values()), att.total_s, rel_tol=1e-9)
    assert att.causes[CAUSE_POLL] > 0


def test_fanin_polling_point_attributes_as_one_polling_row():
    """A 3-peer polling point emits the polling trace vocabulary and
    decomposes like the two-node method: one polling row."""
    cfg = PollingConfig(msg_bytes=100 * 1024, poll_interval_iters=1_000,
                        measure_s=0.02, warmup_s=0.004, peers=3)
    (point,), events = _traced_tasks([PointTask("polling", portals_system(),
                                                cfg)])
    (att,) = attribute_events(events)
    assert att.method == "polling"
    assert att.system == "Portals"
    assert att.windows == 1
    assert point.polls > 0
    assert math.isclose(sum(att.causes.values()), att.total_s, rel_tol=1e-9)


def test_multi_point_segmentation():
    """Executor markers cut one merged stream into per-point records, in
    task order, warmup excluded per point."""
    tasks = [
        PointTask("pww", gm_system(),
                  PwwConfig(msg_bytes=100 * 1024,
                            work_interval_iters=100_000)),
        PointTask("polling", gm_system(),
                  PollingConfig(msg_bytes=100 * 1024,
                                poll_interval_iters=10_000)),
        PointTask("pww", portals_system(),
                  PwwConfig(msg_bytes=100 * 1024,
                            work_interval_iters=100_000)),
    ]
    _, events = _traced_tasks(tasks)
    atts = attribute_events(events)
    assert [a.method for a in atts] == ["pww", "polling", "pww"]
    assert [a.system for a in atts] == ["GM", "GM", "Portals"]


def test_markerless_stream_single_point():
    obs = Observer()
    with use_observer(obs):
        point = run_pww(gm_system(), PwwConfig(
            msg_bytes=100 * 1024, work_interval_iters=1_000_000
        ))
    (att,) = attribute_events(obs.events())
    assert att.method == "pww"
    assert att.system is None  # no marker, no metadata
    # Without markers every batch (warmup included) is decomposed.
    cfg = PwwConfig()
    assert att.windows == cfg.batches + cfg.warmup_batches
    assert att.total_s > point.wait_s * cfg.batches


def test_attribute_window_empty_and_degenerate():
    forest = stitch([])
    causes = attribute_window(forest, 0.0, 1.0)
    assert causes[CAUSE_OTHER] == 1.0
    assert sum(causes.values()) == 1.0
    assert set(causes) == set(ALL_CAUSES)
    assert sum(attribute_window(forest, 1.0, 1.0).values()) == 0.0
    assert sum(attribute_window(forest, 2.0, 1.0).values()) == 0.0


def test_empty_stream_attributes_nothing():
    assert attribute_events([]) == []


def test_truncated_point_still_attributed():
    """A stream cut off before ``point_end`` (ring eviction, crash) still
    yields the open point's decomposition."""
    _, events = _traced_tasks([
        PointTask("pww", gm_system(),
                  PwwConfig(msg_bytes=100 * 1024,
                            work_interval_iters=100_000)),
    ])
    truncated = [ev for ev in events if ev.kind != "point_end"]
    (att,) = attribute_events(truncated)
    assert att.method == "pww"
    assert att.system == "GM"
    assert att.total_s > 0


def test_marker_only_stream_yields_nothing():
    """Markers around a cache-hit point (no simulation events) produce a
    zero point, and a markerless stream with no phase events none at all."""
    from repro.obs.tracer import ObsEvent

    events = [
        ObsEvent(0, 0.0, "executor", "point_start",
                 ("pww", "GM", 1024, 1000, 3)),
        ObsEvent(1, 0.0, "executor", "point_end", ("pww",)),
    ]
    (att,) = attribute_events(events)
    assert att.total_s == 0.0
    assert att.windows == 0
    assert att.fractions() == {}
    assert att.dominant is None
    no_phase = [ObsEvent(0, 0.0, "mpi.req", "req_post",
                         (1, "send", 1, 11, 64))]
    assert attribute_events(no_phase) == []


def test_format_attribution_table(gm_large):
    _, atts = gm_large
    text = format_attribution(atts)
    assert "rendezvous_stall" in text
    assert "pww" in text
    assert "GM" in text
    assert format_attribution([]).startswith("attribution: no")


def test_to_dict_roundtrip(gm_large):
    _, atts = gm_large
    doc = atts[0].to_dict()
    assert doc["dominant"] == CAUSE_RENDEZVOUS
    assert math.isclose(sum(doc["causes"].values()), doc["total_s"],
                        rel_tol=1e-9)
