"""Every figure's sweep cells, pinned: the order, labels and seeds hold.

A cell's ``(figure, runner, mode, x, label, seed)`` decides what it
runs, which metrics phase it opens (metric claims select phases by
label substring) and its result-cache key.  The values below were
recorded from the per-figure runner functions that the figure table
replaced; any change to the table that moves a cell fails here.  The
cells are captured by stubbing ``run_points`` to record its specs and
stop, so no simulation runs.
"""

import pytest

import repro.experiments.figures as figures
from repro.experiments import FIGURES, FULL, QUICK

# Figure key -> its cells in sweep order: (figure, runner, mode, x,
# label, seed), at root seed 1.
CELLS = {
    "fig2": [
        ("Fig 2", "iperf_flows", "off", 5,
         "Fig 2 off flows=5", 7430921891372227957),
        ("Fig 2", "iperf_flows", "off", 10,
         "Fig 2 off flows=10", 2779887816975282505),
        ("Fig 2", "iperf_flows", "off", 20,
         "Fig 2 off flows=20", 9105235288502295392),
        ("Fig 2", "iperf_flows", "off", 40,
         "Fig 2 off flows=40", 4713024200663562056),
        ("Fig 2", "iperf_flows", "strict", 5,
         "Fig 2 strict flows=5", 3311208467535761889),
        ("Fig 2", "iperf_flows", "strict", 10,
         "Fig 2 strict flows=10", 4509559208268692038),
        ("Fig 2", "iperf_flows", "strict", 20,
         "Fig 2 strict flows=20", 1356013154314119192),
        ("Fig 2", "iperf_flows", "strict", 40,
         "Fig 2 strict flows=40", 4604298928376799442),
    ],
    "fig3": [
        ("Fig 3", "iperf_ring", "off", 256,
         "Fig 3 off ring=256", 8717928627217389632),
        ("Fig 3", "iperf_ring", "off", 512,
         "Fig 3 off ring=512", 2032673643847737605),
        ("Fig 3", "iperf_ring", "off", 1024,
         "Fig 3 off ring=1024", 8768982339725150085),
        ("Fig 3", "iperf_ring", "off", 2048,
         "Fig 3 off ring=2048", 2518476680118333940),
        ("Fig 3", "iperf_ring", "strict", 256,
         "Fig 3 strict ring=256", 311041787160969739),
        ("Fig 3", "iperf_ring", "strict", 512,
         "Fig 3 strict ring=512", 4955760407527086829),
        ("Fig 3", "iperf_ring", "strict", 1024,
         "Fig 3 strict ring=1024", 3752204736835276611),
        ("Fig 3", "iperf_ring", "strict", 2048,
         "Fig 3 strict ring=2048", 4575916044092429632),
    ],
    "model": [
        ("Model", "iperf_flows", "strict", 5,
         "Model strict flows=5", 4175357664706290445),
        ("Model", "iperf_flows", "strict", 10,
         "Model strict flows=10", 5151231354474001508),
        ("Model", "iperf_flows", "strict", 20,
         "Model strict flows=20", 8345387259489154030),
        ("Model", "iperf_flows", "strict", 40,
         "Model strict flows=40", 904369382321690322),
    ],
    "fig7": [
        ("Fig 7", "iperf_flows", "off", 5,
         "Fig 7 off flows=5", 8188541673253252279),
        ("Fig 7", "iperf_flows", "off", 10,
         "Fig 7 off flows=10", 5706717138885057301),
        ("Fig 7", "iperf_flows", "off", 20,
         "Fig 7 off flows=20", 3242423064503673023),
        ("Fig 7", "iperf_flows", "off", 40,
         "Fig 7 off flows=40", 7852019380646496556),
        ("Fig 7", "iperf_flows", "strict", 5,
         "Fig 7 strict flows=5", 704027100677960951),
        ("Fig 7", "iperf_flows", "strict", 10,
         "Fig 7 strict flows=10", 7808657143981646273),
        ("Fig 7", "iperf_flows", "strict", 20,
         "Fig 7 strict flows=20", 7767614969696384366),
        ("Fig 7", "iperf_flows", "strict", 40,
         "Fig 7 strict flows=40", 8307546914245502415),
        ("Fig 7", "iperf_flows", "fns", 5,
         "Fig 7 fns flows=5", 7330096237602031447),
        ("Fig 7", "iperf_flows", "fns", 10,
         "Fig 7 fns flows=10", 1229001952014375515),
        ("Fig 7", "iperf_flows", "fns", 20,
         "Fig 7 fns flows=20", 109793123683169476),
        ("Fig 7", "iperf_flows", "fns", 40,
         "Fig 7 fns flows=40", 6374615383062539351),
    ],
    "fig8": [
        ("Fig 8", "iperf_ring", "off", 256,
         "Fig 8 off ring=256", 9188883339418050693),
        ("Fig 8", "iperf_ring", "off", 512,
         "Fig 8 off ring=512", 6679085921422515542),
        ("Fig 8", "iperf_ring", "off", 1024,
         "Fig 8 off ring=1024", 6486305837544666825),
        ("Fig 8", "iperf_ring", "off", 2048,
         "Fig 8 off ring=2048", 1995221385012193490),
        ("Fig 8", "iperf_ring", "strict", 256,
         "Fig 8 strict ring=256", 6078669863667019999),
        ("Fig 8", "iperf_ring", "strict", 512,
         "Fig 8 strict ring=512", 32755690445042864),
        ("Fig 8", "iperf_ring", "strict", 1024,
         "Fig 8 strict ring=1024", 5903513928866210844),
        ("Fig 8", "iperf_ring", "strict", 2048,
         "Fig 8 strict ring=2048", 1234605593325487744),
        ("Fig 8", "iperf_ring", "fns", 256,
         "Fig 8 fns ring=256", 3508459510971913921),
        ("Fig 8", "iperf_ring", "fns", 512,
         "Fig 8 fns ring=512", 7128644914899220391),
        ("Fig 8", "iperf_ring", "fns", 1024,
         "Fig 8 fns ring=1024", 9194981143713537445),
        ("Fig 8", "iperf_ring", "fns", 2048,
         "Fig 8 fns ring=2048", 4734607737455251418),
    ],
    "fig9": [
        ("Fig 9", "netperf_rpc", "off", 128,
         "Fig 9 off rpc=128", 1194053711996935446),
        ("Fig 9", "netperf_rpc", "off", 1024,
         "Fig 9 off rpc=1024", 7455339105753667749),
        ("Fig 9", "netperf_rpc", "off", 4096,
         "Fig 9 off rpc=4096", 4838399264272545361),
        ("Fig 9", "netperf_rpc", "off", 32768,
         "Fig 9 off rpc=32768", 7431298158422567931),
        ("Fig 9", "netperf_rpc", "strict", 128,
         "Fig 9 strict rpc=128", 4300626017515828635),
        ("Fig 9", "netperf_rpc", "strict", 1024,
         "Fig 9 strict rpc=1024", 7667050656322777870),
        ("Fig 9", "netperf_rpc", "strict", 4096,
         "Fig 9 strict rpc=4096", 5587062354824912673),
        ("Fig 9", "netperf_rpc", "strict", 32768,
         "Fig 9 strict rpc=32768", 487501960605364794),
        ("Fig 9", "netperf_rpc", "fns", 128,
         "Fig 9 fns rpc=128", 1313108371337283600),
        ("Fig 9", "netperf_rpc", "fns", 1024,
         "Fig 9 fns rpc=1024", 6560244520062909520),
        ("Fig 9", "netperf_rpc", "fns", 4096,
         "Fig 9 fns rpc=4096", 5783163504685037564),
        ("Fig 9", "netperf_rpc", "fns", 32768,
         "Fig 9 fns rpc=32768", 2637784967013311071),
    ],
    "fig10": [
        ("Fig 10", "bidir_iperf", "off", 1,
         "Fig 10 off cores=1", 2028882847096229986),
        ("Fig 10", "bidir_iperf", "off", 2,
         "Fig 10 off cores=2", 3557183490096227616),
        ("Fig 10", "bidir_iperf", "off", 4,
         "Fig 10 off cores=4", 4018833837534893865),
        ("Fig 10", "bidir_iperf", "strict", 1,
         "Fig 10 strict cores=1", 7324589058899793720),
        ("Fig 10", "bidir_iperf", "strict", 2,
         "Fig 10 strict cores=2", 488404194610722843),
        ("Fig 10", "bidir_iperf", "strict", 4,
         "Fig 10 strict cores=4", 5424952050673894138),
        ("Fig 10", "bidir_iperf", "fns", 1,
         "Fig 10 fns cores=1", 5575003557766830521),
        ("Fig 10", "bidir_iperf", "fns", 2,
         "Fig 10 fns cores=2", 561868906484778939),
        ("Fig 10", "bidir_iperf", "fns", 4,
         "Fig 10 fns cores=4", 3732710917837432181),
    ],
    "fig11a": [
        ("Fig 11a", "redis", "off", 4096,
         "Fig 11a off value=4096", 3786317080477194537),
        ("Fig 11a", "redis", "off", 8192,
         "Fig 11a off value=8192", 8393894478301505897),
        ("Fig 11a", "redis", "off", 32768,
         "Fig 11a off value=32768", 359358860886045634),
        ("Fig 11a", "redis", "off", 131072,
         "Fig 11a off value=131072", 5017984901160911126),
        ("Fig 11a", "redis", "strict", 4096,
         "Fig 11a strict value=4096", 1747974532055449928),
        ("Fig 11a", "redis", "strict", 8192,
         "Fig 11a strict value=8192", 5525262796634179099),
        ("Fig 11a", "redis", "strict", 32768,
         "Fig 11a strict value=32768", 8535676956258891641),
        ("Fig 11a", "redis", "strict", 131072,
         "Fig 11a strict value=131072", 8438371746051605245),
        ("Fig 11a", "redis", "fns", 4096,
         "Fig 11a fns value=4096", 5449878800296148727),
        ("Fig 11a", "redis", "fns", 8192,
         "Fig 11a fns value=8192", 8427928948899556541),
        ("Fig 11a", "redis", "fns", 32768,
         "Fig 11a fns value=32768", 380424720122407117),
        ("Fig 11a", "redis", "fns", 131072,
         "Fig 11a fns value=131072", 2862999941932123934),
    ],
    "fig11b": [
        ("Fig 11b", "nginx", "off", 131072,
         "Fig 11b off page=131072", 7224506067030784149),
        ("Fig 11b", "nginx", "off", 524288,
         "Fig 11b off page=524288", 5018926274342411656),
        ("Fig 11b", "nginx", "off", 2097152,
         "Fig 11b off page=2097152", 4601855236608182306),
        ("Fig 11b", "nginx", "strict", 131072,
         "Fig 11b strict page=131072", 8693825098779889328),
        ("Fig 11b", "nginx", "strict", 524288,
         "Fig 11b strict page=524288", 2458187381197485586),
        ("Fig 11b", "nginx", "strict", 2097152,
         "Fig 11b strict page=2097152", 1897422197731683357),
        ("Fig 11b", "nginx", "fns", 131072,
         "Fig 11b fns page=131072", 2728908805484202404),
        ("Fig 11b", "nginx", "fns", 524288,
         "Fig 11b fns page=524288", 4272160444537161348),
        ("Fig 11b", "nginx", "fns", 2097152,
         "Fig 11b fns page=2097152", 2728575477387889175),
    ],
    "fig11c": [
        ("Fig 11c", "spdk", "off", 32768,
         "Fig 11c off block=32768", 4276659101999805063),
        ("Fig 11c", "spdk", "off", 65536,
         "Fig 11c off block=65536", 7903790896811800864),
        ("Fig 11c", "spdk", "off", 262144,
         "Fig 11c off block=262144", 3878099367626410217),
        ("Fig 11c", "spdk", "strict", 32768,
         "Fig 11c strict block=32768", 2083847639269655442),
        ("Fig 11c", "spdk", "strict", 65536,
         "Fig 11c strict block=65536", 6724279023392392582),
        ("Fig 11c", "spdk", "strict", 262144,
         "Fig 11c strict block=262144", 3819749752901358080),
        ("Fig 11c", "spdk", "fns", 32768,
         "Fig 11c fns block=32768", 3993570280821287105),
        ("Fig 11c", "spdk", "fns", 65536,
         "Fig 11c fns block=65536", 7227175653713915613),
        ("Fig 11c", "spdk", "fns", 262144,
         "Fig 11c fns block=262144", 5715532182149567493),
    ],
    "fig12": [
        ("Fig 12", "redis", "strict", 8192,
         "Fig 12 strict", 5670039087408686079),
        ("Fig 12", "redis", "linux+A", 8192,
         "Fig 12 linux+A", 6078557561578578086),
        ("Fig 12", "redis", "linux+B", 8192,
         "Fig 12 linux+B", 2388559243272910256),
        ("Fig 12", "redis", "fns", 8192,
         "Fig 12 fns", 3395902795884101660),
        ("Fig 12", "redis", "off", 8192,
         "Fig 12 off", 1511135393877258558),
    ],
    "ablation-l3": [
        ("Ablation-L3", "iperf_l3_entries", "strict", 32,
         "Ablation-L3 strict l3=32", 5314323561696629894),
        ("Ablation-L3", "iperf_l3_entries", "fns", 32,
         "Ablation-L3 fns l3=32", 3067616799027568134),
        ("Ablation-L3", "iperf_l3_entries", "strict", 64,
         "Ablation-L3 strict l3=64", 1482388468608265082),
        ("Ablation-L3", "iperf_l3_entries", "fns", 64,
         "Ablation-L3 fns l3=64", 4808310409493903337),
        ("Ablation-L3", "iperf_l3_entries", "strict", 128,
         "Ablation-L3 strict l3=128", 5305281565679930794),
        ("Ablation-L3", "iperf_l3_entries", "fns", 128,
         "Ablation-L3 fns l3=128", 5213677406856283579),
    ],
    "ablation-aging": [
        ("Ablation-aging", "iperf_aging", "strict", 0,
         "Ablation-aging strict aging=0", 2103934962149421882),
        ("Ablation-aging", "iperf_aging", "strict", 16384,
         "Ablation-aging strict aging=16384", 5311228362974834563),
        ("Ablation-aging", "iperf_aging", "strict", 65536,
         "Ablation-aging strict aging=65536", 5851706119525589877),
    ],
    "ablation-walkers": [
        ("Ablation-walkers", "iperf_walkers", "strict", 1,
         "Ablation-walkers strict walkers=1", 5329658911905299080),
        ("Ablation-walkers", "iperf_walkers", "strict", 2,
         "Ablation-walkers strict walkers=2", 4769921788064074446),
        ("Ablation-walkers", "iperf_walkers", "strict", 4,
         "Ablation-walkers strict walkers=4", 480782305164242630),
    ],
    "ablation-ddio": [
        ("Ablation-DDIO", "iperf_ddio", "strict", "off",
         "Ablation-DDIO strict ddio=off", 4107229166170023444),
        ("Ablation-DDIO", "iperf_ddio", "strict", "on",
         "Ablation-DDIO strict ddio=on", 1557995149559172922),
    ],
    "generality": [
        ("Generality", "iperf_descriptor_pages", "strict", 1,
         "Generality strict desc_pages=1", 7936864235721218752),
        ("Generality", "iperf_descriptor_pages", "fns", 1,
         "Generality fns desc_pages=1", 1004331763311920162),
        ("Generality", "iperf_descriptor_pages", "strict", 64,
         "Generality strict desc_pages=64", 5465879103609984709),
        ("Generality", "iperf_descriptor_pages", "fns", 64,
         "Generality fns desc_pages=64", 9045113143131239144),
    ],
    "extension-huge": [
        ("Extension-huge", "iperf_ring", "strict", 1024,
         "Extension-huge strict ring=1024", 1604525649886080390),
        ("Extension-huge", "iperf_ring", "fns", 1024,
         "Extension-huge fns ring=1024", 5050868415168759739),
        ("Extension-huge", "iperf_ring", "fns-huge", 1024,
         "Extension-huge fns-huge ring=1024", 2339686853914976701),
        ("Extension-huge", "iperf_ring", "off", 1024,
         "Extension-huge off ring=1024", 6448239293246448481),
    ],
}


class _Stop(Exception):
    pass


def captured_cells(monkeypatch, key, scale):
    recorded = []

    def record(specs, scale, jobs=None, chunk=None):
        recorded.extend(
            (s.figure, s.runner, s.mode, s.x, s.label, s.seed) for s in specs
        )
        raise _Stop

    monkeypatch.setattr(figures, "run_points", record)
    runner, _description = FIGURES[key]
    with pytest.raises(_Stop):
        runner(scale=scale, seed=1, jobs=None, chunk=None)
    return recorded


def test_every_swept_figure_is_pinned():
    assert list(CELLS) == [key for key in FIGURES if key != "faults"]


@pytest.mark.parametrize("scale", [QUICK, FULL], ids=["quick", "full"])
@pytest.mark.parametrize("key", list(CELLS))
def test_cells_match_the_pinned_grid(monkeypatch, key, scale):
    assert captured_cells(monkeypatch, key, scale) == CELLS[key]
