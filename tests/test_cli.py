"""Tests for the command-line entry point (fast commands only)."""

import pytest

from repro.cli import main


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "DSP" in out and "flexible" in out

    def test_tco(self, capsys):
        assert main(["tco"]) == 0
        out = capsys.readouterr().out
        assert "$3,162" in out or "$3,160" in out
        assert "71.5%" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_seed_flag_parsed(self, capsys):
        assert main(["table1", "--seed", "3"]) == 0

    def test_breakeven(self, capsys):
        assert main(["breakeven"]) == 0
        out = capsys.readouterr().out
        assert "Break-even EC2 price" in out
        assert "lease" in out

    def test_extension_commands_registered(self):
        from repro.cli import _COMMANDS

        expected = {
            "ablation-lease-unit",
            "ablation-scan-interval",
            "ablation-scheduler",
            "ablation-policy",
            "ablation-utilization",
            "breakeven",
            "zoo",
            "federation",
        }
        assert expected <= set(_COMMANDS)

    @pytest.mark.slow  # the cold export runs every paper scenario
    def test_export_reads_scenarios_through_the_cache(
        self, tmp_path, monkeypatch
    ):
        import repro.api.run
        from repro.experiments.cache import ResultCache

        cache = tmp_path / "cache"

        def export(outdir: str) -> dict:
            assert main(["export", "--outdir", str(tmp_path / outdir),
                         "--cache-dir", str(cache)]) == 0
            return {p.name: p.read_bytes()
                    for p in (tmp_path / outdir).iterdir()}

        cold = export("cold")
        # Tables 2-4, Figures 9-11 and the consolidated Figures 12-14
        assert len(ResultCache(cache).entries()) == 7

        def no_simulation(*args, **kwargs):
            raise AssertionError("a warm export must not simulate")

        monkeypatch.setattr(repro.api.run, "run_artifact", no_simulation)
        assert export("warm") == cold


TINY_SPEC_TOML = """
name = "cli-tiny"
description = "tiny spec for CLI tests"

[[workloads]]
generator = "htc-trace"

[workloads.params]
name = "cli-tiny-trace"
machine_nodes = 4
duration = 43200.0
n_jobs = 12
target_utilization = 0.3
size_pmf = [[1, 0.7], [2, 0.2], [4, 0.1]]
runtime_mixture = [[1.0, 600.0, 0.6]]

[[systems]]
runner = "dcs"
"""


class TestListComponents:
    def test_table_output(self, capsys):
        assert main(["list-components", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "registered components" in out
        for name in ("first-fit", "per-hour", "nasa-ipsc", "dawningcloud",
                     "paper-htc", "consolidated-figures"):
            assert name in out

    def test_kind_filter(self, capsys):
        assert main(["list-components", "--kind", "system", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "dcs" in out and "first-fit" not in out

    def test_unknown_kind_fails(self, capsys):
        assert main(["list-components", "--kind", "nope", "--no-cache"]) == 1

    def test_json_output(self, capsys):
        import json

        assert main(["list-components", "--json", "--kind", "billing-meter",
                     "--no-cache"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_name = {r["name"]: r for r in rows}
        assert set(by_name) == {"per-hour", "per-second", "reserved-spot"}
        params = {p["name"] for p in by_name["reserved-spot"]["params"]}
        assert "reserved_nodes" in params


class TestRunSpec:
    def test_spec_file_runs_and_hits_cache(self, tmp_path, capsys):
        spec = tmp_path / "tiny.toml"
        spec.write_text(TINY_SPEC_TOML)
        cache = tmp_path / "cache"
        assert main(["run-spec", str(spec), "--cache-dir", str(cache)]) == 0
        first = capsys.readouterr()
        assert '"cli-tiny"' in first.out
        assert "ran in" in first.err
        assert main(["run-spec", str(spec), "--cache-dir", str(cache)]) == 0
        second = capsys.readouterr()
        assert "cached" in second.err
        assert second.out == first.out

    def test_missing_paths_fail(self, capsys):
        assert main(["run-spec", "--no-cache"]) == 1
        assert "at least one spec file" in capsys.readouterr().err

    def test_invalid_spec_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text('name = "x"\n')
        assert main(["run-spec", str(bad), "--no-cache"]) == 1
        assert "bad.toml" in capsys.readouterr().err

    def test_paths_rejected_for_other_commands(self):
        with pytest.raises(SystemExit):
            main(["table1", "spec.toml"])


class TestSpecDir:
    def test_spec_dir_scenarios_appear_and_run(self, tmp_path, capsys):
        specs = tmp_path / "specs"
        specs.mkdir()
        (specs / "tiny.toml").write_text(TINY_SPEC_TOML)
        assert main(["list-scenarios", "--spec-dir", str(specs),
                     "--no-cache"]) == 0
        assert "cli-tiny" in capsys.readouterr().out
        assert main(["run", "--scenario", "cli-tiny",
                     "--spec-dir", str(specs), "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert '"experiment":"cli-tiny"' in out

    def test_missing_explicit_spec_dir_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["list-scenarios", "--spec-dir", str(tmp_path / "nope"),
                  "--no-cache"])

    def test_colliding_spec_name_warns_and_continues(self, tmp_path, capsys):
        specs = tmp_path / "specs"
        specs.mkdir()
        (specs / "clash.json").write_text(
            '{"name": "table1-models", "workloads": ["w"], "systems": ["s"]}'
        )
        assert main(["list-scenarios", "--spec-dir", str(specs),
                     "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert "table1-models" in captured.out


class TestResilienceCli:
    """Supervised-run plumbing: exit codes, summaries, resume, verify."""

    def test_failed_scenario_exits_nonzero_keeping_siblings(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_CHAOS",
            '[{"action": "kill", "scenario": "tco-case", "attempts": []}]',
        )
        code = main(["run", "--scenario", "tco-case,table1-models",
                     "--no-cache", "--retries", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED" in captured.err
        assert "scenario(s) failed" in captured.err
        # the completed sibling's payload is still on stdout
        assert '"table1-models"' in captured.out
        assert '"tco-case"' not in captured.out

    def test_transient_failure_recovers_via_retry(self, capsys, monkeypatch):
        monkeypatch.setenv(
            "REPRO_CHAOS",
            '[{"action": "kill", "scenario": "tco-case", "attempts": [1]}]',
        )
        code = main(["run", "--scenario", "tco-case", "--no-cache"])
        captured = capsys.readouterr()
        assert code == 0
        assert "attempt 2" in captured.err
        assert '"tco-case"' in captured.out

    def test_resume_reports_journaled_successes(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["run", "--scenario", "tco-case",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["run", "--scenario", "tco-case", "--resume",
                     "--cache-dir", cache]) == 0
        assert "(resumed)" in capsys.readouterr().err

    def test_cache_info_shows_journal(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["run", "--scenario", "tco-case",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["cache-info", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "journal" in out and "records" in out

    def test_cache_info_verify_finds_and_quarantines(self, tmp_path, capsys):
        from repro.experiments.cache import ResultCache

        cache_dir = tmp_path / "cache"
        ResultCache(cache_dir).put("s", "not-the-right-key", 1,
                                   params={}, seed=0)
        assert main(["cache-info", "--verify",
                     "--cache-dir", str(cache_dir)]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out and "0/1 entries ok" in out
        assert main(["cache-info", "--verify", "--quarantine",
                     "--cache-dir", str(cache_dir)]) == 1
        capsys.readouterr()
        # quarantined entries are out of the live tree: now clean
        assert main(["cache-info", "--verify",
                     "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "0/0 entries ok" in out
        assert "quarantined entries: 1" in out

    def test_flag_validation(self):
        with pytest.raises(SystemExit):
            main(["run", "--quarantine", "--no-cache"])
        with pytest.raises(SystemExit):
            main(["run", "--verify", "--no-cache"])
        with pytest.raises(SystemExit):
            main(["run", "--retries", "-1", "--no-cache"])
        with pytest.raises(SystemExit):
            main(["run", "--timeout", "0", "--no-cache"])
        with pytest.raises(SystemExit):
            main(["run", "--fail-fast", "--keep-going", "--no-cache"])


class TestAblateVerbs:
    def test_bad_pattern_exits_one_with_failure_table(self, capsys):
        assert main(["ablate", "--scenario", "fig09-*", "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert "not ablatable" in err
        assert "fig09-sweep-blue" in err

    def test_no_match_exits_one(self, capsys):
        assert main(["ablate", "--scenario", "zzz*", "--no-cache"]) == 1
        assert "no scenarios match" in capsys.readouterr().err

    def test_step_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["sensitivity", "--scenario", "table2-*", "--step", "0"])

    def test_ablate_writes_ranked_section_and_json(self, tmp_path, capsys):
        md = tmp_path / "report.md"
        md.write_text("# My notes\n\nkeep me\n")
        args = ["ablate", "--scenario", "table2-nasa",
                "--cache-dir", str(tmp_path / "cache"), "--md", str(md)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "### Ablation & sensitivity: ablate:table2-nasa" in out
        assert '"axis_importance"' in out
        text = md.read_text()
        assert text.startswith("# My notes\n\nkeep me\n")
        assert "## Ablation & sensitivity" in text
        # warm re-run: all cache hits, ranked table byte-identical,
        # marker block replaced in place
        assert main(args) == 0
        rerun = capsys.readouterr().out

        def table(s):
            return [line for line in s.splitlines()
                    if line.startswith("|")]

        assert table(rerun) == table(out)
        assert "0 executed" in rerun and "cache hits" in rerun
        assert md.read_text().count("repro:ablation:begin") == 1
        assert md.read_text().startswith("# My notes\n\nkeep me\n")
