"""Unit tests: RNG registry, tracer, unit helpers."""

import pytest

from repro.obs import ObsTracer
from repro.sim import Engine, RngRegistry, Tracer
from repro.sim.units import (
    kib,
    mbps,
    mhz,
    mib,
    msec,
    nsec,
    to_mbps,
    to_usec,
    usec,
)


class TestRng:
    def test_same_seed_same_stream(self):
        a = RngRegistry(7).stream("x").integers(0, 1000, 10)
        b = RngRegistry(7).stream("x").integers(0, 1000, 10)
        assert list(a) == list(b)

    def test_streams_are_independent_of_creation_order(self):
        reg1 = RngRegistry(7)
        s_a1 = list(reg1.stream("a").integers(0, 1000, 5))
        _ = reg1.stream("b")
        reg2 = RngRegistry(7)
        _ = reg2.stream("b")
        s_a2 = list(reg2.stream("a").integers(0, 1000, 5))
        assert s_a1 == s_a2

    def test_different_names_differ(self):
        reg = RngRegistry(7)
        a = list(reg.stream("a").integers(0, 10**9, 8))
        b = list(reg.stream("b").integers(0, 10**9, 8))
        assert a != b

    def test_reset_restarts_sequences(self):
        reg = RngRegistry(3)
        first = list(reg.stream("s").integers(0, 10**9, 4))
        reg.reset()
        again = list(reg.stream("s").integers(0, 10**9, 4))
        assert first == again

    def test_stream_is_cached(self):
        reg = RngRegistry(1)
        assert reg.stream("x") is reg.stream("x")


class TestTracer:
    def test_base_tracer_is_an_interface_that_stores_nothing(self):
        tr = Tracer()
        tr.record(1.0, "s", "x", None)
        tr.record_kernel(1.0, object())
        assert vars(tr) == {}

    def test_records_and_filters(self):
        tr = ObsTracer()
        tr.record(1.0, "src", "keep", "a")
        tr.record(2.0, "src", "drop", "b")
        assert len(tr.of_kind("keep")) == 1
        assert tr.of_kind("keep")[0].detail == "a"

    def test_unfiltered_records_everything(self):
        tr = ObsTracer()
        tr.record(1.0, "s", "x")
        tr.record(2.0, "s", "y")
        assert len(tr.events()) == 2

    def test_sink_invoked(self):
        seen = []
        tr = ObsTracer()
        tr.dispatch = seen.append
        tr.record(0.0, "s", "k")
        assert len(seen) == 1

    def test_engine_kernel_tracing_gated(self):
        for kernel in (False, True):
            tr = ObsTracer(kernel=kernel)
            eng = Engine(trace=tr)
            eng.timeout(1.0)
            eng.run()
            assert bool(tr.of_kind("kernel")) is kernel

    def test_clear(self):
        tr = ObsTracer()
        tr.record(0.0, "s", "k")
        tr.clear()
        assert tr.events() == []


class TestUnits:
    def test_time_units(self):
        assert usec(45) == pytest.approx(45e-6)
        assert msec(2) == pytest.approx(2e-3)
        assert nsec(4) == pytest.approx(4e-9)
        assert to_usec(1e-3) == pytest.approx(1000)

    def test_byte_units(self):
        assert kib(10) == 10 * 1024
        assert mib(2) == 2 * 1024 * 1024

    def test_bandwidth_units(self):
        assert mbps(88) == pytest.approx(88e6)
        assert to_mbps(88e6) == pytest.approx(88)

    def test_frequency(self):
        assert mhz(500) == pytest.approx(5e8)

    def test_round_trips(self):
        assert to_mbps(mbps(123.4)) == pytest.approx(123.4)
        assert to_usec(usec(7.7)) == pytest.approx(7.7)
