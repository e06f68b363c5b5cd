"""Serial/parallel equivalence: ``--jobs N`` must change nothing.

The acceptance bar for the parallel executor: rows, raw point results,
adopted metric phases and the generated reproduce reports are
byte-identical between ``jobs=1`` and ``jobs=N``.  Runs use a micro
scale and reduced grids to keep the suite fast; the cells still cross
worker boundaries (more points than workers).
"""

import json

from repro.context import using
from repro.experiments import FIGURE_TABLE, RunScale, fault_sweep, sweep
from repro.experiments.faultsweep import sweep_plans
from repro.obs import MetricsRegistry
from repro.obs.expectations import SPECS
from repro.obs.expect.reproduce import run_reproduce

MICRO = RunScale(
    name="micro",
    warmup_ns=1_000_000.0,
    measure_ns=2_000_000.0,
    latency_measure_ns=4_000_000.0,
)


def run_fig2(jobs, chunk=None):
    registry = MetricsRegistry(sample_interval_ns=500_000.0)
    with using(registry=registry):
        result = sweep(
            FIGURE_TABLE["fig2"],
            modes=("off", "strict"),
            xs=(5, 10),
            scale=MICRO,
            jobs=jobs,
            chunk=chunk,
        )
    return result, registry.report()


class TestFigureEquivalence:
    def test_fig2_rows_metrics_and_raw_identical(self):
        serial, serial_metrics = run_fig2(jobs=None)
        pooled, pooled_metrics = run_fig2(jobs=3)
        assert pooled.rows == serial.rows
        # Raw per-point results (TestbedResult dataclasses) compare
        # field-by-field, including extras and allocation traces.
        assert pooled.raw == serial.raw
        # Metric phases adopted from workers are indistinguishable from
        # serially recorded ones, down to the JSON byte level.
        assert json.dumps(pooled_metrics, sort_keys=True) == json.dumps(
            serial_metrics, sort_keys=True
        )

    def test_chunk_boundaries_invisible(self):
        # jobs × chunk cells: chunk 1 (worst-case per-point dispatch),
        # a prime that straddles worker boundaries unevenly, and a
        # chunk larger than the whole sweep (single dispatch).  All
        # must reproduce the serial result exactly.
        serial, serial_metrics = run_fig2(jobs=None)
        serial_blob = json.dumps(serial_metrics, sort_keys=True)
        for jobs, chunk in ((2, 1), (2, 3), (4, 3), (4, 99)):
            pooled, pooled_metrics = run_fig2(jobs=jobs, chunk=chunk)
            assert pooled.rows == serial.rows, (jobs, chunk)
            assert pooled.raw == serial.raw, (jobs, chunk)
            assert (
                json.dumps(pooled_metrics, sort_keys=True) == serial_blob
            ), (jobs, chunk)

    def test_fault_sweep_rows_identical(self):
        label, plan = sweep_plans(seed=1, scale=MICRO)[0]
        serial = fault_sweep(scale=MICRO, plan=plan, jobs=None)
        pooled = fault_sweep(scale=MICRO, plan=plan, jobs=2)
        assert pooled.rows == serial.rows
        assert pooled.raw.keys() == serial.raw.keys()
        assert (
            pooled.raw[label]["timeline"] == serial.raw[label]["timeline"]
        )


def fig2_reduced(scale, jobs=None, chunk=None, seed=1):
    return sweep(
        FIGURE_TABLE["fig2"],
        modes=("off", "strict"),
        xs=(5, 10),
        scale=scale,
        jobs=jobs,
        chunk=chunk,
        seed=seed,
    )


class TestReproduceEquivalence:
    def reproduce(self, tmp_path, jobs, chunk=None):
        out = tmp_path / f"jobs{jobs}chunk{chunk}"
        out.mkdir()
        status = run_reproduce(
            ["fig2"],
            scale=MICRO,
            jobs=jobs,
            chunk=chunk,
            report_path=str(out / "REPORT.md"),
            json_path=str(out / "report.json"),
            runners={"fig2": fig2_reduced},
            specs={"fig2": SPECS["fig2"]},
            echo=lambda _: None,
        )
        return (
            status,
            (out / "REPORT.md").read_text(),
            (out / "report.json").read_text(),
        )

    def test_reports_byte_identical_across_jobs(self, tmp_path):
        serial_status, serial_md, serial_json = self.reproduce(tmp_path, 1)
        pooled_status, pooled_md, pooled_json = self.reproduce(tmp_path, 4)
        assert pooled_status == serial_status
        assert pooled_md == serial_md
        assert pooled_json == serial_json
        # A non-default chunk must be equally invisible in the report.
        chunked_status, chunked_md, chunked_json = self.reproduce(
            tmp_path, 2, chunk=1
        )
        assert chunked_status == serial_status
        assert chunked_md == serial_md
        assert chunked_json == serial_json
        doc = json.loads(pooled_json)
        assert doc["provenance"]["config_hash"] == json.loads(serial_json)[
            "provenance"
        ]["config_hash"]
