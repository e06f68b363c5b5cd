"""Unit tests for host configuration and derived geometry."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.host import Host, HostConfig
from repro.host.server import data_touch_ns
from repro.host.testbed import LINK_GBPS
from repro.iommu import IommuConfig
from repro.sim import Simulator


class TestGeometry:
    def test_default_matches_paper_setup(self):
        config = HostConfig.cascade_lake()
        assert config.num_cores == 5
        assert LINK_GBPS == 100.0
        assert config.mtu_bytes == 4096
        assert config.ring_size_packets == 256
        assert config.descriptor_pages == 64
        assert not config.enable_ddio

    def test_ring_pages_uses_2x_factor(self):
        """The NIC keeps twice the ring size worth of pages mapped
        (the paper's working-set formula)."""
        config = HostConfig.cascade_lake()
        assert config.ring_pages == 2 * 256
        assert config.descriptors_per_ring == 8

    def test_iova_working_set_formula(self):
        """2 x cores x MTU(pow2-rounded-down) x ring size (§2.2)."""
        config = HostConfig.cascade_lake(ring_size_packets=2048)
        assert config.iova_working_set_bytes == 2 * 5 * 4096 * 2048
        config9k = HostConfig.cascade_lake(mtu_bytes=9000)
        # 9000 rounds down to 8192.
        assert config9k.iova_working_set_bytes == 2 * 5 * 8192 * 256

    def test_pages_per_packet(self):
        assert HostConfig.cascade_lake().pages_per_packet == 1
        assert HostConfig.cascade_lake(mtu_bytes=9000).pages_per_packet == 3

    def test_ice_lake_preset(self):
        config = HostConfig.ice_lake()
        assert config.enable_ddio
        assert config.memory_bandwidth_gbps > 100

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            HostConfig(mode="bogus")

    def test_invalid_mtu_rejected(self):
        with pytest.raises(ValueError):
            HostConfig(mtu_bytes=0)

    def test_dctcp_mtu_synced(self):
        # DCTCP takes the host's MTU: a flow's segments are MTU-sized.
        config = HostConfig.cascade_lake(mtu_bytes=9000)
        host = Host(Simulator(), config, lambda packet: None)
        assert host.register_tx_flow(1000, 0).segment_bytes == 9000


class TestCpuCosts:
    def test_data_touch_grows_with_ring_size(self):
        base = data_touch_ns(256, enable_ddio=False)
        large = data_touch_ns(2048, enable_ddio=False)
        assert large > base * 2

    def test_ddio_discount(self):
        cold = data_touch_ns(256, enable_ddio=False)
        warm = data_touch_ns(256, enable_ddio=True)
        assert warm < cold


def _keywords_passed_in(package: Path) -> set[str]:
    """Every keyword name passed to any call in the package's source."""
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                names.update(kw.arg for kw in node.keywords if kw.arg)
    return names


def test_every_field_has_a_caller():
    # A field that no figure, study, app or fault row sets is a
    # constant in disguise: it belongs beside the code that reads it.
    # Field definitions are annotations, not calls, so only a caller
    # (a preset, a point runner, the app testbed) counts.
    passed = _keywords_passed_in(Path(repro.__file__).parent)
    unset = [
        f"{config.__name__}.{field.name}"
        for config in (HostConfig, IommuConfig)
        for field in dataclasses.fields(config)
        if field.name not in passed
    ]
    assert unset == []
