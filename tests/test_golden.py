"""Golden regression tests.

The simulator is deterministic, so canonical runs must reproduce the
recorded values *exactly* (to float round-trip).  Any intentional change
to timing behaviour — protocol, scheduler, calibration — must regenerate
``tests/golden_values.json`` (see the module-level docstring there is no
script: the generation snippet lives in this file's ``regenerate``
function) and be justified against EXPERIMENTS.md.

This file is also the observability drift gate (the way ``check=True``
is pinned by ``tests/test_verify_golden_drift.py``): the same canonical
measurements re-run with the tracer and metrics registry attached must
be bit-identical to the recorded goldens, proving the observer changed
nothing it observed.
"""

import json
from pathlib import Path

import pytest

from repro.baselines import run_pingpong
from repro.config import gm_system, portals_system
from repro.core import PollingConfig, PwwConfig, run_polling, run_pww
from repro.core.accounting import drain_events
from repro.obs import Observer, use_observer
from repro.patterns import PatternConfig, run_pattern

KB = 1024
GOLDEN_PATH = Path(__file__).parent / "golden_values.json"


def compute_current() -> dict:
    """Re-run the canonical measurements (also the regeneration recipe:
    ``json.dump(compute_current(), open(GOLDEN_PATH, 'w'), indent=2)``)."""
    out = {}
    for name, factory in (("GM", gm_system), ("Portals", portals_system)):
        pt = run_polling(factory(), PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000,
            measure_s=0.02, warmup_s=0.004,
        ))
        out[f"{name}.polling.100KB.1e3"] = {
            "availability": pt.availability,
            "bandwidth_Bps": pt.bandwidth_Bps,
            "msgs": pt.msgs,
            "interrupts": pt.interrupts,
        }
        pw = run_pww(factory(), PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=100_000,
            batches=6, warmup_batches=2,
        ))
        out[f"{name}.pww.100KB.1e5"] = {
            "availability": pw.availability,
            "bandwidth_Bps": pw.bandwidth_Bps,
            "post_s": pw.post_s,
            "work_s": pw.work_s,
            "wait_s": pw.wait_s,
        }
        pp = run_pingpong(factory(), 100 * KB, repeats=5, warmup_msgs=1)
        out[f"{name}.pingpong.100KB"] = {"latency_s": pp.latency_s}
    # The canonical multi-rank pattern points (4-rank crossbar worlds).
    for name, factory, pattern in (("GM", gm_system, "halo2d"),
                                   ("Portals", portals_system, "allreduce")):
        pt = run_pattern(factory(), PatternConfig(
            pattern=pattern, ranks=4, msg_bytes=100 * KB,
            work_interval_iters=100_000, iterations=4, warmup_iterations=1,
        ))
        out[f"{name}.pattern.{pattern}.4r"] = {
            "availability": pt.availability,
            "bandwidth_Bps": pt.bandwidth_Bps,
            "msgs": pt.msgs,
            "interrupts": pt.interrupts,
        }
    # Routed multi-hop points: 8 ranks on a k=4 fat-tree put most traffic
    # on inter-edge routes (edge -> core -> edge), the per-packet wire
    # path that burst batching never arms on.  The dispatched-event count
    # is pinned too: the routed path's event structure is part of the
    # contract, not just its timing.
    for name, factory, pattern in (("GM", gm_system, "halo3d"),
                                   ("Portals", portals_system, "allreduce")):
        drain_events()
        pt = run_pattern(factory(), PatternConfig(
            pattern=pattern, ranks=8, msg_bytes=100 * KB,
            work_interval_iters=100_000, iterations=4, warmup_iterations=1,
            topology="fattree", arity=4,
        ))
        out[f"{name}.pattern.{pattern}.8r.fattree4"] = {
            "availability": pt.availability,
            "bandwidth_Bps": pt.bandwidth_Bps,
            "msgs": pt.msgs,
            "interrupts": pt.interrupts,
            "events_processed": drain_events(),
        }
    return out


@pytest.fixture(scope="module")
def current():
    return compute_current()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_keys_match(current, golden):
    assert set(current) == set(golden)


@pytest.mark.parametrize("key", [
    "GM.polling.100KB.1e3",
    "GM.pww.100KB.1e5",
    "GM.pingpong.100KB",
    "Portals.polling.100KB.1e3",
    "Portals.pww.100KB.1e5",
    "Portals.pingpong.100KB",
    "GM.pattern.halo2d.4r",
    "Portals.pattern.allreduce.4r",
    "GM.pattern.halo3d.8r.fattree4",
    "Portals.pattern.allreduce.8r.fattree4",
])
def test_golden_values_exact(current, golden, key):
    for field, expected in golden[key].items():
        measured = current[key][field]
        assert measured == pytest.approx(expected, rel=1e-12), (
            f"{key}.{field}: measured {measured!r} vs golden {expected!r} — "
            f"timing behaviour changed; regenerate goldens if intentional"
        )


# ------------------------------------------------- observability drift gate
@pytest.fixture(scope="module")
def observed():
    """The canonical measurements re-run with the full observability
    layer ambient (tracer + metrics + queue observers), plus the
    observer itself for sanity assertions."""
    observer = Observer()
    with use_observer(observer):
        values = compute_current()
    return values, observer


def test_observed_keys_match(observed, golden):
    values, _observer = observed
    assert set(values) == set(golden)


@pytest.mark.parametrize("key", [
    "GM.polling.100KB.1e3",
    "GM.pww.100KB.1e5",
    "GM.pingpong.100KB",
    "Portals.polling.100KB.1e3",
    "Portals.pww.100KB.1e5",
    "Portals.pingpong.100KB",
    "GM.pattern.halo2d.4r",
    "Portals.pattern.allreduce.4r",
    "GM.pattern.halo3d.8r.fattree4",
    "Portals.pattern.allreduce.8r.fattree4",
])
def test_observed_values_bit_identical(observed, golden, key):
    """Tracing + metrics attached must change *nothing* it observes:
    every golden value is reproduced exactly, not approximately."""
    values, _observer = observed
    for field, expected in golden[key].items():
        measured = values[key][field]
        assert measured == expected, (
            f"{key}.{field}: observed run measured {measured!r} vs golden "
            f"{expected!r} — the observability layer perturbed the "
            f"simulation; it must be strictly passive"
        )


def test_observed_run_actually_observed(observed):
    """Guard against a silently detached observer making the drift gate
    vacuous: the canonical runs must have produced events and metrics."""
    _values, observer = observed
    counts = observer.tracer.counts()
    assert counts.get("pww_phase"), counts
    assert counts.get("poll") or counts.get("poll_empty"), counts
    assert counts.get("req_post"), counts
    metric_names = observer.metrics.names()
    assert "sim.pww.batches" in metric_names
    assert "sim.poll.misses" in metric_names
