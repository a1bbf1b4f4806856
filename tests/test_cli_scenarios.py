"""CLI coverage for the scenario registry and the artifact cache.

* ``repro scenarios`` — the registry listing (table and ``--json``),
  including extra spec files registered from the command line;
* the unknown-scenario contract — every ``--scenario`` consumer exits
  with code 2 and a one-line error, never a traceback;
* a TOML spec file as ``--scenario`` runs the full collect → distill →
  modulated pipeline from the command line;
* ``validate --cache-dir`` twice: the second run reports a warm cache;
* ``characterize --cache-dir`` twice: the second run recomputes
  nothing, prints the same stdout and ledgers its cache hits.

All tests drive ``repro.cli.main`` in-process (the test_cli_obs idiom).
"""

import json

import pytest

from repro.cli import main
from repro.scenarios import scenario_names, unregister

MINI_TOML = """\
format = 1
name = "clispec"
duration = 60.0

[[checkpoints]]
label = "start"
fraction = 0.0

[[fields.signal]]
end = 1.0
base = 15.0

[[fields.loss]]
end = 1.0
base = 0.005
hi = 0.02

[[fields.bandwidth]]
end = 1.0
base = 0.7
lo = 0.4
hi = 0.85

[[fields.access]]
end = 1.0
base = 0.0004
lo = 0.00005
"""


@pytest.fixture
def mini_toml(tmp_path):
    path = tmp_path / "clispec.toml"
    path.write_text(MINI_TOML, encoding="utf-8")
    yield path
    unregister("clispec")   # in case a test registered it


# ======================================================================
# repro scenarios
# ======================================================================
class TestScenariosCommand:
    def test_table_lists_registered_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("wean", "porter", "flagstaff", "chatterbox",
                     "roaming"):
            assert name in out
        assert "source" in out and "builtin" in out

    def test_json_listing(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_name = {row["name"]: row for row in rows}
        assert set(by_name) == set(scenario_names())
        wean = by_name["wean"]
        assert wean["source"] == "builtin"
        assert wean["duration"] > 0
        assert {"checkpoints", "cross_laptops", "has_motion"} <= set(wean)

    def test_extra_spec_file_is_registered_and_listed(self, mini_toml,
                                                      capsys):
        assert main(["scenarios", str(mini_toml), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        row = [r for r in rows if r["name"] == "clispec"][0]
        assert row["source"] == str(mini_toml)
        assert row["duration"] == 60.0

    def test_json_rows_carry_family_and_origin(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        by_name = {row["name"]: row
                   for row in json.loads(capsys.readouterr().out)}
        assert by_name["shuttle"]["family"] == "mobility"
        assert by_name["ran4g"]["family"] == "ran"
        assert by_name["leo"]["family"] == "leo"
        assert by_name["wean"]["family"] is None
        for name in ("wean", "shuttle", "ran4g", "leo"):
            assert by_name[name]["origin"] == "builtin"

    def test_registered_spec_file_origin(self, mini_toml, capsys):
        assert main(["scenarios", str(mini_toml), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        row = [r for r in rows if r["name"] == "clispec"][0]
        assert row["origin"] == "spec-file"
        assert row["family"] is None

    def test_generated_spec_file_origin(self, tmp_path, capsys):
        from repro.scenarios import unregister
        from repro.scenarios.generate import generate_spec
        from repro.scenarios.spec import save_spec

        path = tmp_path / "fuzzed.toml"
        save_spec(generate_spec(0, 0), path)
        try:
            assert main(["scenarios", str(path), "--json"]) == 0
            rows = json.loads(capsys.readouterr().out)
            row = [r for r in rows if r["name"] == "fuzz-s0-i0000"][0]
            # the generator stamp marks it generated even though it
            # was registered from a file on disk
            assert row["origin"] == "generated"
        finally:
            unregister("fuzz-s0-i0000")

    def test_table_shows_family_column(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "family" in out and "origin" in out
        shuttle = [l for l in out.splitlines()
                   if l.startswith("shuttle")][0]
        assert "mobility" in shuttle and "builtin" in shuttle

    def test_bad_spec_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.toml"
        path.write_text("name = [unclosed", encoding="utf-8")
        assert main(["scenarios", str(path)]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err and "broken.toml" in err


# ======================================================================
# Unknown scenarios exit 2 everywhere
# ======================================================================
class TestUnknownScenario:
    @pytest.mark.parametrize("argv", [
        ["validate", "--scenario", "nosuch", "--benchmark", "ftp"],
        ["collect", "--scenario", "nosuch", "-o", "out.trace"],
        ["characterize", "--scenario", "nosuch"],
        ["check", "--scenario", "nosuch"],
        ["trace", "nosuch"],
    ])
    def test_unknown_name_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "unknown scenario" in err
        assert "wean" in err            # the choices are listed

    def test_missing_spec_file_exits_2(self, capsys):
        argv = ["validate", "--scenario", "no/such/file.toml",
                "--benchmark", "ftp"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_spec_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad"}), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--scenario", str(path),
                  "--benchmark", "ftp"])
        assert exc.value.code == 2
        assert "invalid scenario spec" in capsys.readouterr().err


# ======================================================================
# A TOML scenario through the full pipeline, with the artifact cache
# ======================================================================
class TestTomlScenarioEndToEnd:
    def test_validate_runs_a_pure_toml_scenario(self, mini_toml, capsys):
        assert main(["validate", "--scenario", str(mini_toml),
                     "--benchmark", "ftp", "--ftp-bytes", "60000",
                     "--trials", "1", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "ftp on clispec" in out
        assert "Real (s)" in out and "Modulated (s)" in out

    def test_validate_cache_dir_warm_rerun(self, mini_toml, tmp_path,
                                           capsys):
        argv = ["validate", "--scenario", str(mini_toml),
                "--benchmark", "ftp", "--ftp-bytes", "60000",
                "--trials", "1", "--workers", "1",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "pipeline cache:" in cold
        assert "0 hit(s)" in cold

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 recomputed" in warm
        assert "(warm)" in warm
        # The rendered tables agree byte for byte.
        table = lambda text: text.split("pipeline cache:")[0]
        assert table(warm) == table(cold)

    def test_characterize_cache_dir_warm_rerun(self, mini_toml, tmp_path,
                                               capsys):
        run_dir = tmp_path / "run"
        argv = ["characterize", "--scenario", str(mini_toml),
                "--trials", "1", "--workers", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--run-dir", str(run_dir)]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "0 hit(s), 1 recomputed (cold)" in cold.err
        assert list((tmp_path / "cache" / "objects").glob("*/*.rba"))

        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "1 hit(s), 0 recomputed (warm)" in warm.err
        # The cache line goes to stderr, so stdout is byte-identical.
        assert warm.out == cold.out
        ledger = [json.loads(line) for line in
                  (run_dir / "ledger.jsonl").read_text().splitlines()]
        assert [r["cache"] for r in ledger] == [
            {"hits": 0, "misses": 1}, {"hits": 1, "misses": 0}]
