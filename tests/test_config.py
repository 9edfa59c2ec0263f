"""Tests: configuration presets and helpers."""

import dataclasses

import pytest

from repro.config import (
    CpuConfig,
    PRESETS,
    ProgressModel,
    SystemConfig,
    TransportKind,
    get_system,
    gm_system,
    portals_system,
    preset_names,
    tcp_system,
)


class TestPresets:
    def test_gm_semantics(self):
        s = gm_system()
        assert s.transport is TransportKind.GM
        assert s.progress is ProgressModel.LIBRARY_POLLED
        assert s.name == "GM"

    def test_portals_semantics(self):
        s = portals_system()
        assert s.transport is TransportKind.PORTALS
        assert s.progress is ProgressModel.OFFLOADED

    def test_tcp_semantics(self):
        s = tcp_system()
        assert s.transport is TransportKind.TCP

    def test_lookup_case_insensitive(self):
        assert get_system("portals").name == "Portals"
        assert get_system("GM").name == "GM"

    def test_lookup_unknown(self):
        with pytest.raises(KeyError):
            get_system("quadrics")

    def test_presets_registry(self):
        assert set(PRESETS) == {"GM", "Portals", "TCP"}

    def test_extension_presets_resolve_by_name(self):
        """One lookup serves the paper's presets and the extensions'."""
        assert preset_names() == ["GM", "Portals", "TCP", "EMP",
                                  "OffloadNIC", "Portals+coalesce"]
        for name in preset_names():
            assert get_system(name.lower()).name == name
        assert get_system("OffloadNIC", seed=3).seed == 3

    def test_overrides_via_factory(self):
        s = gm_system(seed=42, cpus_per_node=2)
        assert s.seed == 42 and s.cpus_per_node == 2

    def test_replaced_copy(self):
        s = gm_system()
        s2 = s.replaced(name="GM2")
        assert s2.name == "GM2" and s.name == "GM"

    def test_configs_frozen(self):
        s = gm_system()
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.name = "mutated"


class TestDerivedValues:
    def test_work_iter_time(self):
        cpu = CpuConfig()
        # 2 cycles at 500 MHz = 4 ns.
        assert cpu.work_iter_s == pytest.approx(4e-9)

    def test_paper_constants_present(self):
        s = gm_system()
        assert s.gm.eager_threshold_bytes == 16 * 1024
        assert s.gm.eager_isend_s == pytest.approx(45e-6)
        assert s.gm.rndv_isend_s == pytest.approx(5e-6)
        assert s.machine.cpu.freq_hz == pytest.approx(500e6)
        assert s.machine.switch.ports == 8

    def test_portals_protocol_constants(self):
        p = portals_system().portals
        assert p.rndv_threshold_bytes == 16 * 1024
        assert p.tx_window_pkts >= 1
        assert p.isend_trap_s > 10e-6  # kernel traps are expensive

    def test_tcp_never_uses_long_protocol(self):
        assert tcp_system().tcp.rndv_threshold_bytes > 1 << 40
