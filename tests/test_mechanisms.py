"""Mechanism checks: the design ablations and the known deviations.

DESIGN.md §5 credits each verdict of the reproduction to a named
mechanism (interrupt CPU stealing, the per-packet pipeline, the progress
engine split, the eager threshold).  Each ablation below changes one
mechanism and asserts what it predicts.  EXPERIMENTS.md "Known
deviations" explains where the reproduction departs from the paper's
plots; each deviation test reads the instrument that attributes the cost
(``CPU.kernel_profile``, the ``sim.poll.*`` counters, the PWW phases, the
ping-pong and netperf results) and asserts the mechanism the prose
states.  The docs cite these tests as ``test_mechanisms.py::<name>``.
"""

import dataclasses

import pytest

from repro.baselines import (
    NetperfConfig,
    PingPongConfig,
    run_netperf,
    run_pingpong,
)
from repro.config import (
    FaultConfig,
    coalesced_portals,
    gm_system,
    offload_nic_system,
    portals_system,
    tcp_system,
)
from repro.core import PollingConfig, PwwConfig, run_polling, run_pww
from repro.obs import Observer, use_observer
from repro.sim import Engine

KB = 1024
LONG_WORK = 10_000_000


# ------------------------------------------------------------- ablations
def _plateau(system):
    pt = run_polling(system, PollingConfig(
        msg_bytes=100 * KB, poll_interval_iters=1_000, measure_s=0.05,
    ))
    return pt


def _efficiency(pt):
    """Payload bytes per CPU-second taken from the application."""
    return pt.bandwidth_Bps / max(1e-9, 1.0 - pt.availability)


def test_ablation_interrupt_coalescing():
    """Coalescing raises throughput per CPU-second consumed (DESIGN §5.1).

    Coalescing folds the trap entry/exit of back-to-back interrupts into
    one.  The Portals pipeline is CPU-bound, so the saved cycles surface
    as bytes moved per CPU-second, without touching the protocol.
    """
    base = _plateau(portals_system())
    coalesced = _plateau(coalesced_portals())
    assert _efficiency(coalesced) > _efficiency(base) * 1.03
    assert coalesced.bandwidth_MBps > base.bandwidth_MBps


def _plateau_at(dma_MBps: float) -> float:
    base = gm_system()
    machine = dataclasses.replace(
        base.machine,
        nic=dataclasses.replace(
            base.machine.nic, host_dma_bandwidth_Bps=dma_MBps * 1e6
        ),
    )
    system = dataclasses.replace(base, machine=machine)
    pt = run_polling(system, PollingConfig(
        msg_bytes=100 * KB, poll_interval_iters=1_000, measure_s=0.05,
    ))
    return pt.bandwidth_MBps


def test_ablation_host_dma_bandwidth():
    """GM plateau tracks the host-bus rate, the 2002 PCI bottleneck
    (DESIGN §5.2).

    The plateau emerges from the per-packet pipeline's slowest stage, the
    shared host bus, not from a configured constant: scaling the bus rate
    moves it proportionally while the wire (160 MB/s) stays fixed.
    """
    plateaus = {mb: _plateau_at(mb) for mb in (60, 91, 130)}
    assert plateaus[60] < plateaus[91] < plateaus[130]
    # Within the bus-bound regime the plateau scales roughly linearly.
    assert 0.85 <= plateaus[60] / (plateaus[91] * 60 / 91) <= 1.15


def test_ablation_progress_model():
    """Offloaded progress drains the wait phase; library-polled keeps it
    (DESIGN §5.3).

    Offloaded progress on GM-class hardware (the idealized no-interrupt
    offload NIC) collapses the PWW wait that library-polled GM cannot
    escape: the single design choice behind Figures 11, 13 and 17.
    """
    gm = run_pww(gm_system(), PwwConfig(
        msg_bytes=100 * KB, work_interval_iters=LONG_WORK,
    ))
    offload = run_pww(offload_nic_system(), PwwConfig(
        msg_bytes=100 * KB, work_interval_iters=LONG_WORK,
    ))
    assert gm.wait_s > 1e-3, "GM should still pay the transfer in the wait"
    assert offload.wait_s < 2e-4, "offloaded progress should drain the wait"
    # Neither steals CPU during work (both are interrupt-free).
    assert abs(gm.overhead_s) < 5e-5
    assert abs(offload.overhead_s) < 5e-5


def _avail_at_threshold(threshold_bytes: int):
    base = gm_system()
    system = dataclasses.replace(
        base, gm=dataclasses.replace(
            base.gm, eager_threshold_bytes=threshold_bytes
        ),
    )
    return run_polling(system, PollingConfig(
        msg_bytes=10 * KB, poll_interval_iters=1_000, measure_s=0.05,
    ))


def test_ablation_eager_threshold():
    """10 KB messages: eager sends depress availability; rendezvous do
    not (DESIGN §5.4).

    The paper traces the 10 KB availability dip to the eager protocol's
    45 µs sends (§4.2).  Moving the threshold below 10 KB switches those
    messages to rendezvous (5 µs posts) and recovers the worker's CPU.
    """
    eager = _avail_at_threshold(16 * KB)
    rndv = _avail_at_threshold(4 * KB)
    assert rndv.availability > eager.availability + 0.1


def _lossy(rate: float):
    base = portals_system()
    machine = dataclasses.replace(
        base.machine, fault=FaultConfig(data_loss_rate=rate)
    )
    return dataclasses.replace(base, machine=machine)


def test_ablation_wire_loss():
    """Bandwidth degrades monotonically with loss; transfers still finish.

    The Portals stack runs over a kernel module providing reliability and
    flow control; its go-back-N retries consume wire *and* CPU, so lossy
    links hurt kernel transports twice.
    """
    points = {}
    for rate in (0.0, 0.02, 0.10):
        points[rate] = run_polling(_lossy(rate), PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000,
            measure_s=0.05,
        ))
    assert points[0.0].bandwidth_MBps > points[0.02].bandwidth_MBps
    assert points[0.02].bandwidth_MBps > points[0.10].bandwidth_MBps
    # Even at 10% loss the suite keeps moving messages.
    assert points[0.10].msgs > 0


def _with_window(window: int):
    base = portals_system()
    system = dataclasses.replace(
        base, portals=dataclasses.replace(base.portals, tx_window_pkts=window),
    )
    return run_polling(system, PollingConfig(
        msg_bytes=100 * KB, poll_interval_iters=1_000, measure_s=0.05,
    ))


def test_ablation_tx_window():
    """Wider go-back-N windows trade application CPU for marginal
    bandwidth.

    The window couples sender pacing to receiver interrupt processing;
    the calibrated default (3) reproduces the paper's availability
    plateau and the monotonic PWW wait decline.
    """
    points = {w: _with_window(w) for w in (2, 3, 8)}
    assert points[8].availability < points[2].availability
    assert points[8].bandwidth_MBps > points[2].bandwidth_MBps * 0.9


def test_engine_timeout_chain_lands_on_time():
    """20,000 chained 1 µs timeouts through the heap end at exactly 20 ms."""
    engine = Engine()

    def ticker():
        for _ in range(20_000):
            yield engine.timeout(1e-6)

    proc = engine.spawn(ticker())
    engine.run(proc)
    assert abs(engine.now - 0.02) < 1e-9


# ---------------------------------------------------- known deviations
def _observed_polling(system, cfg):
    """One polling point run under an observer: the point, and the
    observer holding its metrics and its world."""
    observer = Observer()
    with use_observer(observer):
        pt = run_polling(system, cfg)
    return pt, observer


def test_deviation_portals_pre_knee_bump():
    """The Portals bump before the bandwidth knee is the measurement
    window counting whole messages, not several completions per poll."""
    def reading(iters):
        pt, observer = _observed_polling(portals_system(), PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=iters))
        cpu = observer.worlds[-1].cluster[0].cpu
        rx_count, _rx_s = cpu.kernel_profile["portals_rx"]
        counter = observer.metrics.counter
        multi = (counter("sim.poll.completions").value
                 - counter("sim.poll.hits").value)
        return pt, rx_count / cpu.elapsed(), multi

    low, low_rx_rate, low_multi = reading(1_000)
    high, high_rx_rate, high_multi = reading(100_000)
    # The bump: over 10% more bandwidth at 1e5 iterations than at 1e3 ...
    assert high.bandwidth_MBps > 1.1 * low.bandwidth_MBps
    # ... read off an equally long window holding more whole messages ...
    assert high.elapsed_s == pytest.approx(low.elapsed_s, rel=1e-3)
    assert high.bandwidth_Bps / low.bandwidth_Bps == pytest.approx(
        high.msgs / low.msgs, rel=1e-3)
    # ... while the worker took packets in at the same rate ...
    assert high_rx_rate == pytest.approx(low_rx_rate, rel=0.02)
    # ... and no poll found more than one completion.
    assert low_multi == high_multi == 0
    # A 10x longer window flattens the bump.
    low_long, high_long = (
        run_polling(portals_system(), PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=iters, measure_s=0.3))
        for iters in (1_000, 100_000))
    assert high_long.bandwidth_MBps == pytest.approx(
        low_long.bandwidth_MBps, rel=0.03)


def test_deviation_portals_10kb_plateau():
    """The low 10 KB Fig 4 plateau: the per-packet receive interrupt is
    the largest worker kernel cost, and the per-message posting traps
    are what set 10 KB below the larger sizes."""
    kernel_share, shares = {}, {}
    for size_kb in (10, 100):
        _pt, observer = _observed_polling(portals_system(), PollingConfig(
            msg_bytes=size_kb * KB, poll_interval_iters=1_000))
        cpu = observer.worlds[-1].cluster[0].cpu
        kernel_share[size_kb] = cpu.kernel_time_s / cpu.elapsed()
        share = {label: t / cpu.kernel_time_s
                 for label, (_n, t) in cpu.kernel_profile.items()}
        assert max(share, key=share.get) == "portals_rx"
        shares[size_kb] = share
    small, large = shares[10], shares[100]
    assert kernel_share[10] > 0.95 > 0.75 > kernel_share[100]
    assert small["portals_rx"] > 0.45
    assert small["isend_trap"] + small["irecv_trap"] > 0.2
    assert large["isend_trap"] + large["irecv_trap"] < 0.05


def test_deviation_fig10_post_times():
    """Fig 10's post times are the configured posting costs: one send and
    one receive trap per batch on Portals, far above GM's."""
    cfg = PwwConfig(msg_bytes=100 * KB, work_interval_iters=100_000)
    portals, gm = portals_system(), gm_system()
    portals_pt, gm_pt = run_pww(portals, cfg), run_pww(gm, cfg)
    assert portals_pt.post_s == pytest.approx(
        portals.portals.isend_trap_s + portals.portals.irecv_trap_s)
    # 100 KB is above the eager threshold: GM posts a rendezvous send.
    assert gm_pt.post_s == pytest.approx(gm.gm.rndv_isend_s + gm.gm.irecv_s)
    assert portals_pt.post_s > 10 * gm_pt.post_s


def test_deviation_gm_zero_byte_latency():
    """GM's ~51 µs zero-byte half round trip is mostly the 45 µs eager
    send."""
    gm = gm_system()
    pp = run_pingpong(gm, PingPongConfig(0))
    assert 50e-6 < pp.latency_s < 52e-6
    assert gm.gm.eager_isend_s > 0.85 * pp.latency_s


def test_deviation_netperf_dry_phase_not_quiescent():
    """netperf's "quiescent" delay loop absorbs the echo's first message
    on the kernel-stack transports, so its dry time runs long."""
    cfg = NetperfConfig(delay_iters=250_000)
    dry_excess_s, availability = {}, {}
    for system in (gm_system(), portals_system(), tcp_system()):
        result = run_netperf(system, cfg)
        dry_excess_s[system.name] = (
            result.dry_s - cfg.delay_iters * system.machine.cpu.work_iter_s)
        availability[system.name] = result.availability
    assert dry_excess_s["GM"] == pytest.approx(0.0, abs=1e-12)
    assert dry_excess_s["Portals"] > 0
    assert dry_excess_s["TCP"] > 0
    # The inflated dry time pushes TCP's availability above 1.
    assert availability["TCP"] > 1.0
