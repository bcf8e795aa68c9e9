"""Tests for the machine-readable export layer (experiments.export)."""

import csv
import json

import pytest

from repro.experiments.export import (
    export_all,
    rows_to_csv,
    rows_to_json,
    write_rows,
)

ROWS = [
    {"system": "DCS", "cost": 43008, "saving": None},
    {"system": "DawningCloud", "cost": 29014, "saving": 0.325},
]


class TestSerializers:
    def test_csv_round_trip(self):
        text = rows_to_csv(ROWS)
        back = list(csv.DictReader(text.splitlines()))
        assert back[0]["system"] == "DCS"
        assert back[1]["cost"] == "29014"

    def test_csv_empty(self):
        assert rows_to_csv([]) == ""

    def test_json_round_trip(self):
        back = json.loads(rows_to_json(ROWS))
        assert back == ROWS

    def test_column_order_preserved(self):
        header = rows_to_csv(ROWS).splitlines()[0]
        assert header == "system,cost,saving"


class TestWriteRows:
    def test_csv_file(self, tmp_path):
        p = write_rows(ROWS, tmp_path / "t.csv")
        assert p.exists()
        assert "DawningCloud" in p.read_text()

    def test_json_file(self, tmp_path):
        p = write_rows(ROWS, tmp_path / "t.json")
        assert json.loads(p.read_text())[1]["saving"] == 0.325

    def test_unknown_suffix(self, tmp_path):
        with pytest.raises(ValueError, match="suffix"):
            write_rows(ROWS, tmp_path / "t.xlsx")


@pytest.mark.slow  # full evaluation: every table, sweep and figure
class TestExportAll:
    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        from repro.experiments.orchestrator import Orchestrator

        outdir = tmp_path_factory.mktemp("export")
        paths = export_all(outdir, Orchestrator(seed=0))
        return outdir, paths

    def test_one_file_per_artifact(self, exported):
        outdir, paths = exported
        names = {p.stem for p in paths}
        assert {
            "table1_usage_models",
            "table2_nasa",
            "table3_blue",
            "table4_montage",
            "fig09_sweep_blue",
            "fig10_sweep_nasa",
            "fig11_sweep_montage",
            "fig12_fig13_fig14_consolidated",
            "tco_case_study",
        } == names
        assert all(p.exists() and p.stat().st_size > 0 for p in paths)

    def test_table2_contents(self, exported):
        outdir, _ = exported
        rows = list(csv.DictReader(
            (outdir / "table2_nasa.csv").read_text().splitlines()
        ))
        assert [r["configuration"] for r in rows] == [
            "DCS system", "SSP system", "DRP system", "DawningCloud",
        ]

    def test_consolidated_has_four_systems(self, exported):
        outdir, _ = exported
        rows = list(csv.DictReader(
            (outdir / "fig12_fig13_fig14_consolidated.csv").read_text()
            .splitlines()
        ))
        assert {r["system"] for r in rows} == {
            "DCS", "SSP", "DRP", "DawningCloud",
        }

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fmt"):
            export_all(tmp_path, fmt="xml")
