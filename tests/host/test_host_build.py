"""Building a host costs what the host touches, not what it models.

The host models 2**21 physical frames and ages its IOVA allocator with
a long alloc/free stream; neither may cost memory in proportion to
those sizes.  A free list of every frame alone would hold one 8-byte
pointer per frame.
"""

import tracemalloc

from repro.host import HostConfig
from repro.host.server import Host
from repro.sim import Simulator


def test_build_allocates_nothing_per_modeled_frame():
    config = HostConfig.cascade_lake()
    tracemalloc.start()
    try:
        host = Host(Simulator(), config, lambda packet: None)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    total_frames = host.physmem.total_frames
    assert config.effective_aging_iovas > 0
    assert peak < 8 * total_frames // 4
    assert host.physmem.frames_in_use < total_frames // 100
