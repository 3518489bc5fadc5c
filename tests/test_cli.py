import csv
import hashlib
import json
import os
import subprocess
import sys

import pytest

import plethy
from plethy import (
    CharCache,
    Config,
    character_table,
    load_config,
    parse_config,
    save_config,
)
from plethy.cli import main


@pytest.fixture(autouse=True)
def isolated_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.delenv("PLETHY_CONFIG", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_json_output(self, capsys):
        code, out, err = run_cli(capsys, "table", "3")
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["n"] == 3
        assert list(data["rows"]) == ["3", "2,1", "1,1,1"]
        assert data["rows"]["2,1"] == {"3": "-1", "2,1": "0", "1,1,1": "2"}

    def test_csv_round_trip(self, capsys):
        code, out, err = run_cli(capsys, "table", "4", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["lambda", "4", "3,1", "2,2", "2,1,1", "1,1,1,1"]
        values = [[int(cell) for cell in row[1:]] for row in rows[1:]]
        assert values == character_table(4)

    def test_too_large_rejected(self, capsys):
        code, out, err = run_cli(capsys, "table", "100")
        assert code == 2
        assert "table too large" in err and "18" in err


class TestBoxplus:
    def test_single_box_json(self, capsys):
        code, out, err = run_cli(capsys, "boxplus", "1", "--d", "2")
        assert code == 0
        data = json.loads(out)
        assert data["lambda"] == "1" and data["d"] == 2 and data["route"] == "direct"
        assert data["classfunction"] == {"n": 1, "values": {"1": "2"}}
        assert data["decomposition"] == {"1": "2"}

    def test_both_routes_agree(self, capsys):
        code, out, err = run_cli(capsys, "boxplus", "2", "--d", "2", "--route", "both")
        assert code == 0
        data = json.loads(out)
        assert data["agreement"] is True
        assert data["direct"] == data["plethystic"]
        assert data["direct"]["values"] == {"2": "2", "1,1": "6"}
        assert data["decomposition"] == {"2": "4", "1,1": "2"}
        code, out, err = run_cli(capsys, "boxplus", "2,1", "--d", "2", "--route", "plethystic")
        assert code == 0
        # Byte for byte, key order included.
        expected = {
            "lambda": "2,1",
            "d": 2,
            "route": "plethystic",
            "classfunction": {"n": 3, "values": {"3": "2", "2,1": "0", "1,1,1": "80"}},
            "decomposition": {"3": "14", "2,1": "26", "1,1,1": "14"},
        }
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_d_one_reproduces_table_row(self, capsys):
        code, out, err = run_cli(capsys, "boxplus", "2,1", "--d", "1")
        assert code == 0
        data = json.loads(out)
        assert data["classfunction"]["values"] == {"3": "-1", "2,1": "0", "1,1,1": "2"}
        assert data["decomposition"] == {"2,1": "1"}

    def test_csv_output(self, capsys):
        code, out, err = run_cli(capsys, "boxplus", "1", "--d", "2", "--format", "csv")
        assert code == 0
        assert out == "kind,key,value\nvalue,1,2\nmultiplicity,1,2\n"

    def test_bad_partition_rejected(self, capsys):
        code, out, err = run_cli(capsys, "boxplus", "1,x", "--d", "2")
        assert code == 2
        assert "error:" in err and "'x'" in err

    def test_bad_d_rejected(self, capsys):
        code, out, err = run_cli(capsys, "boxplus", "1", "--d", "0")
        assert code == 2
        assert "--d must be positive" in err

    def test_limits_of_verify_thm1(self, capsys):
        code, out, err = run_cli(capsys, "boxplus", "1", "--d", "4")
        assert code == 2 and out == ""
        assert "--d = 4 exceeds the limit 3" in err
        code, out, err = run_cli(capsys, "boxplus", "1,1,1,1,1,1", "--d", "2")
        assert code == 2 and out == ""
        assert "|lambda| = 6 exceeds the limit 5" in err


class TestQuotient:
    def test_subdivided_column(self, capsys):
        code, out, err = run_cli(capsys, "quotient", "2,2,2,2", "--d", "2")
        assert code == 0
        data = json.loads(out)
        assert data == {
            "nu": "2,2,2,2",
            "d": 2,
            "core": "",
            "quotient": ["1,1", "1,1"],
            "sign": 1,
        }

    def test_nonempty_core_has_undefined_sign(self, capsys):
        code, out, err = run_cli(capsys, "quotient", "2,1", "--d", "2")
        assert code == 0
        data = json.loads(out)
        assert data["core"] == "2,1"
        assert data["quotient"] == ["", ""]
        assert data["sign"] == "undefined"

    def test_d_one(self, capsys):
        code, out, err = run_cli(capsys, "quotient", "3,1", "--d", "1")
        assert code == 0
        data = json.loads(out)
        assert data["core"] == "" and data["quotient"] == ["3,1"] and data["sign"] == 1

    def test_d_past_size_rejected(self, capsys):
        code, out, err = run_cli(capsys, "quotient", "2,1", "--d", "4")
        assert code == 2 and out == ""
        assert "--d = 4 exceeds the limit 3" in err
        code, out, err = run_cli(capsys, "quotient", "", "--d", "2")
        assert code == 2
        assert "--d = 2 exceeds the limit 1" in err

    @pytest.mark.parametrize(
        "nu, d, quotient",
        [("10000000", 2, ["", "5000000"]), ("40000", 40000, [""] * 39999 + ["1"])],
    )
    def test_long_row_finishes(self, nu, d, quotient):
        """The sign reads the bead positions once: no scan over every
        position up to the largest bead, no quadratic inversion count."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plethy.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "plethy.cli", "quotient", nu, "--d", str(d)],
            env=env,
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"nu": nu, "d": d, "core": "", "quotient": quotient, "sign": 1}


class TestVerifyCommand:
    def test_single_sweep_payload(self, capsys):
        code, out, err = run_cli(capsys, "verify", "thm1", "--n", "2", "--d", "2")
        assert code == 0
        data = json.loads(out)
        assert list(data) == ["theorem", "params", "cases", "failures", "elapsed_ms", "status"]
        assert data == {
            "theorem": "Thm1",
            "params": {"n": 2, "d": 2},
            "cases": 2,
            "failures": [],
            "elapsed_ms": 0,
            "status": "PASS",
        }

    def test_timings_flag_keeps_clock(self, capsys):
        code, out, err = run_cli(capsys, "verify", "thm1", "--n", "1", "--d", "2", "--timings")
        assert code == 0
        data = json.loads(out)
        assert isinstance(data["elapsed_ms"], int) and data["elapsed_ms"] >= 0

    def test_vanish_hypothesis_violation_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "thm2-vanish", "--n", "2", "--d", "2")
        assert code == 2
        assert "hypothesis d does not divide n violated" in err

    def test_failing_sweep_exits_one(self, capsys, monkeypatch):
        from plethy import verify as verify_mod

        def broken(n, d, max_n, max_d, cache):
            return verify_mod.VerificationReport(
                "Thm1", {"n": n, "d": d}, 1, [{"relation": "direct route = plethystic route"}]
            )

        monkeypatch.setattr(verify_mod, "verify_theorem1", broken)
        code, out, err = run_cli(capsys, "verify", "thm1", "--n", "1", "--d", "2")
        assert code == 1
        data = json.loads(out)
        assert data["status"] == "FAIL"
        assert data["failures"] == [{"relation": "direct route = plethystic route"}]

    def test_limit_violation_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "thm1", "--n", "9")
        assert code == 2
        assert "n = 9 exceeds the limit 5" in err

    def test_littlewood_d_limit_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "littlewood", "--d", "4")
        assert code == 2
        assert "d = 4 exceeds the limit 3" in err

    @pytest.mark.parametrize(
        "which, params",
        [
            ("thm1", {"n": 5, "d": 3}),
            ("thm1-scaled", {"n": 5, "d": 3}),
            ("littlewood", {"max_size": 8, "d": 2}),
            ("thm2-div", {"n": 4, "d": 3}),
            ("thm2-vanish", {"n": 4, "d": 3}),
            ("oracle", {"n": 3, "d": 3}),
        ],
    )
    def test_default_params(self, capsys, which, params):
        code, out, err = run_cli(capsys, "verify", which)
        assert code == 0
        assert json.loads(out)["params"] == params

    @pytest.mark.parametrize("override", [{"thm2_d": 2}, {"thm2_n": 3}])
    def test_vanish_default_is_the_last_pair_of_its_grid(self, capsys, tmp_path, override):
        cfg = tmp_path / "plethy.cfg"
        write_config(cfg, cache_path=str(tmp_path / "mn.txt"), **override)
        code, out, err = run_cli(capsys, "--config", str(cfg), "verify", "thm2-vanish")
        assert code == 0, err
        data = json.loads(out)
        assert data["status"] == "PASS" and data["params"] == {"n": 3, "d": 2}

    def test_vanish_with_an_empty_grid_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "plethy.cfg"
        write_config(cfg, cache_path=str(tmp_path / "mn.txt"), thm2_d=1)
        code, out, err = run_cli(capsys, "--config", str(cfg), "verify", "thm2-vanish")
        assert code == 2 and out == ""
        assert "verify thm2-vanish has an empty grid" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("littlewood", "--n", "3"), "--n"),
            (("thm1", "--max-size", "3"), "--max-size"),
            (("all", "--n", "1"), "--n"),
            (("all", "--d", "2"), "--d"),
        ],
    )
    def test_flag_the_sweep_does_not_take_is_usage_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert f"verify {argv[0]} does not take {flag}" in err

    def test_removed_workers_flag_is_usage_error(self, capsys):
        assert run_cli(capsys, "--workers", "2", "verify", "thm1", "--n", "1")[0] == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli(capsys, "verify", "everything")[0] == 2
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_module_run_prints_report(self):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plethy.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "plethy.cli", "verify", "thm1", "--n", "1"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["status"] == "PASS"

    def test_out_writes_file_and_keeps_stdout_clean(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys, "verify", "littlewood", "--max-size", "2", "--out", str(target)
        )
        assert code == 0 and out == ""
        data = json.loads(target.read_text(encoding="utf-8"))
        assert data["theorem"] == "Littlewood" and data["status"] == "PASS"

    def test_littlewood_default_d_follows_thm1_d(self, capsys, tmp_path):
        cfg = tmp_path / "plethy.cfg"
        write_config(cfg, cache_path=str(tmp_path / "mn.txt"), thm1_d=1)
        code, out, err = run_cli(capsys, "--config", str(cfg), "verify", "littlewood")
        assert code == 0, err
        data = json.loads(out)
        assert data["params"]["d"] == 1 and data["status"] == "PASS"


def write_config(path, **overrides):
    config = Config(**overrides)
    save_config(config, str(path))
    return config


class TestConfigHandling:
    def test_config_flag_sets_format_and_limits(self, capsys, tmp_path):
        cfg = tmp_path / "plethy.cfg"
        write_config(cfg, output_format="csv", max_table_n=3)
        code, out, err = run_cli(capsys, "--config", str(cfg), "table", "2")
        assert code == 0
        assert next(csv.reader(out.splitlines())) == ["lambda", "2", "1,1"]
        code, out, err = run_cli(capsys, "--config", str(cfg), "table", "4")
        assert code == 2
        assert "table too large" in err and "limit 3" in err

    def test_env_variable_is_honored(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "plethy.cfg"
        write_config(cfg, output_format="csv")
        monkeypatch.setenv("PLETHY_CONFIG", str(cfg))
        code, out, err = run_cli(capsys, "table", "2")
        assert code == 0 and out.startswith("lambda,")

    def test_flag_beats_environment(self, capsys, tmp_path, monkeypatch):
        env_cfg = tmp_path / "env.cfg"
        write_config(env_cfg, output_format="csv")
        monkeypatch.setenv("PLETHY_CONFIG", str(env_cfg))
        flag_cfg = tmp_path / "flag.cfg"
        write_config(flag_cfg, output_format="json")
        code, out, err = run_cli(capsys, "--config", str(flag_cfg), "table", "2")
        assert code == 0 and out.startswith("{")

    def test_missing_config_file_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "--config", str(tmp_path / "absent.cfg"), "table", "2")
        assert code == 2
        assert "error:" in err

    def test_round_trip_is_lossless(self, tmp_path):
        config = Config(
            cache_path=str(tmp_path / "c.txt"),
            max_table_n=7,
            thm1_n=4,
            thm1_d=2,
            littlewood_size=5,
            thm2_n=3,
            thm2_d=2,
            output_format="csv",
        )
        path = tmp_path / "saved.cfg"
        save_config(config, str(path))
        assert load_config(str(path)) == config

    def test_removed_parallelism_key_is_ignored_with_a_note(self, capsys, tmp_path):
        cfg = tmp_path / "old.cfg"
        cfg.write_text("parallelism = 2\n", encoding="utf-8")
        assert load_config(str(cfg)) == Config()
        assert capsys.readouterr().err.count("parallelism") == 1
        code, with_config, err = run_cli(capsys, "--config", str(cfg), "verify", "thm1", "--n", "1")
        assert code == 0 and "removed" in err
        code, without_config, err = run_cli(capsys, "verify", "thm1", "--n", "1")
        assert code == 0 and err == ""
        assert with_config == without_config

    def test_saved_config_does_not_depend_on_core_count(self, monkeypatch):
        texts = set()
        for cores in (2, 8):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            texts.add(Config().to_text())
        assert len(texts) == 1

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key 'colour' on line 2"):
            parse_config("# comment\ncolour = red\n")

    def test_parse_rejects_bad_int(self):
        with pytest.raises(ValueError, match="thm1_n needs an integer"):
            parse_config("thm1_n = soon\n")

    def test_parse_rejects_bad_format(self):
        with pytest.raises(ValueError, match="output_format must be one of json, csv"):
            parse_config("output_format = yaml\n")

    def test_parse_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError, match="thm1_n must be a positive integer"):
            parse_config("thm1_n = 0\n")

    def test_parse_rejects_shapeless_line(self):
        with pytest.raises(ValueError, match="line 1 is not 'key = value'"):
            parse_config("just words\n")

    def test_config_show_round_trips(self, capsys):
        code, out, err = run_cli(capsys, "config", "show")
        assert code == 0
        assert parse_config(out) == Config()


class TestCacheCommand:
    def test_info_and_clear(self, capsys, tmp_path):
        cfg = tmp_path / "plethy.cfg"
        cache_path = tmp_path / "store" / "mn.txt"
        write_config(cfg, cache_path=str(cache_path))
        assert run_cli(capsys, "--config", str(cfg), "table", "4")[0] == 0
        code, out, err = run_cli(capsys, "--config", str(cfg), "cache", "info")
        assert code == 0 and err == ""
        info = json.loads(out)
        assert info["path"] == str(cache_path)
        assert info["exists"] is True and info["entries"] > 0
        assert info["bytes"] == cache_path.stat().st_size
        assert info["lines"] == info["entries"] == len(cache_path.read_text().splitlines())
        assert info["duplicate_lines"] == info["malformed_lines"] == 0
        assert info["largest_n"] == 4
        code, out, err = run_cli(capsys, "--config", str(cfg), "cache", "clear")
        assert code == 0 and json.loads(out)["cleared"] is True
        info = json.loads(run_cli(capsys, "--config", str(cfg), "cache", "info")[1])
        assert info == {
            "path": str(cache_path),
            "exists": False,
            "entries": 0,
            "bytes": 0,
            "lines": 0,
            "duplicate_lines": 0,
            "malformed_lines": 0,
            "largest_n": 0,
        }

    def test_info_counts_duplicate_and_malformed_lines(self, capsys, tmp_path):
        cfg = tmp_path / "plethy.cfg"
        cache_path = tmp_path / "mn.txt"
        write_config(cfg, cache_path=str(cache_path))
        cache_path.write_text("2|1,1=1\n2|1,1=1\n3|2=5\n2,1|2,1=-1\ngarbage\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "cache", "info")
        assert code == 0
        assert err == f"plethy: skipped 2 malformed lines in {cache_path}\n"
        info = json.loads(out)
        assert (info["entries"], info["lines"], info["duplicate_lines"], info["malformed_lines"]) == (2, 5, 1, 2)
        assert info["largest_n"] == 3

    def test_torn_cache_file(self, capsys, tmp_path):
        cfg = tmp_path / "plethy.cfg"
        cache_path = tmp_path / "mn.txt"
        write_config(cfg, cache_path=str(cache_path))
        clean = run_cli(capsys, "table", "3")[1]
        assert run_cli(capsys, "--config", str(cfg), "table", "4")[0] == 0
        with open(cache_path, "a", encoding="ascii") as handle:
            handle.write("4,4|2,2")
        code, out, err = run_cli(capsys, "--config", str(cfg), "table", "3")
        assert code == 0 and out == clean
        assert err == f"plethy: skipped 1 malformed line in {cache_path}\n"
        # That run added entries, so its flush rewrote the file without the torn line.
        assert not cache_path.read_text().endswith("4,4|2,2")
        assert run_cli(capsys, "--config", str(cfg), "table", "3")[2] == ""
        with open(cache_path, "a", encoding="ascii") as handle:
            handle.write("4,4|2,2")
        code, out, err = run_cli(capsys, "--config", str(cfg), "cache", "clear")
        assert code == 0 and err == "" and json.loads(out)["cleared"] is True
        assert not cache_path.exists()
        assert run_cli(capsys, "--config", str(cfg), "table", "3")[0] == 0

    @pytest.mark.parametrize("line", ["garbage\n", "3|2=5\n"])
    def test_malformed_line_is_skipped_with_a_warning(self, capsys, tmp_path, line):
        cfg = tmp_path / "plethy.cfg"
        cache_path = tmp_path / "mn.txt"
        write_config(cfg, cache_path=str(cache_path))
        clean = run_cli(capsys, "table", "3")[1]
        cache_path.write_text(line)
        code, out, err = run_cli(capsys, "--config", str(cfg), "table", "3")
        assert (code, out) == (0, clean)
        assert err == f"plethy: skipped 1 malformed line in {cache_path}\n"

    def test_conflicting_line_is_fatal(self, capsys, tmp_path):
        cfg = tmp_path / "plethy.cfg"
        cache_path = tmp_path / "mn.txt"
        write_config(cfg, cache_path=str(cache_path))
        cache_path.write_text("2,1|2,1=-1\n2,1|2,1=1\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "table", "3")
        assert code == 2 and out == ""
        assert "conflicting values -1 and 1" in err and "plethy cache clear" in err
        assert run_cli(capsys, "--config", str(cfg), "cache", "clear")[0] == 0
        assert run_cli(capsys, "--config", str(cfg), "table", "3")[0] == 0

    def test_command_that_adds_nothing_leaves_the_file_alone(self, capsys, tmp_path):
        cfg = tmp_path / "plethy.cfg"
        cache_path = tmp_path / "mn.txt"
        write_config(cfg, cache_path=str(cache_path))
        assert run_cli(capsys, "--config", str(cfg), "table", "5")[0] == 0
        # Unsorted and with a duplicate line: only a flush that adds entries rewrites it.
        lines = cache_path.read_text().splitlines(keepends=True)
        cache_path.write_text("".join(lines[::-1] + lines[:1]))
        before, stamp = cache_path.read_bytes(), cache_path.stat().st_mtime_ns
        assert run_cli(capsys, "--config", str(cfg), "table", "5")[0] == 0
        assert run_cli(capsys, "--config", str(cfg), "cache", "info")[0] == 0
        assert cache_path.read_bytes() == before and cache_path.stat().st_mtime_ns == stamp

    def test_concurrent_writers_leave_one_clean_file(self, tmp_path):
        cfg = tmp_path / "plethy.cfg"
        cache_path = tmp_path / "mn.txt"
        write_config(cfg, cache_path=str(cache_path))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plethy.__file__)))
        commands = [
            ("table", "7"),
            ("table", "8"),
            ("boxplus", "2,1", "--d", "2", "--route", "both"),
            ("verify", "thm1", "--n", "3", "--d", "2"),
        ]
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "plethy.cli", "--config", str(cfg), *argv],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
            )
            for argv in commands
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert (proc.returncode, err) == (0, "")
        lines = cache_path.read_text().splitlines()
        assert lines == sorted(set(lines))
        cache = CharCache(str(cache_path))
        assert cache.file_stats["duplicate_lines"] == cache.file_stats["malformed_lines"] == 0
        assert len(cache) == len(lines) > 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mn.txt", "plethy.cfg"]


VERIFY_ALL_SHA256 = "e619eef16c8de42c8f47d0066965e675b9350cf83cf9982de85e8e2267cedf47"
# The cache file that `verify all` then `table 8` write to a fresh path:
# one line per entry, sorted as strings.
VERIFY_ALL_TABLE_8_CACHE_SHA256 = "46aca8524d7a8e11af7d990babd9fc83883e9df65fdfcc41a5f38caf754b4715"
VERIFY_ALL_TABLE_8_CACHE_ENTRIES = 6024


class TestDeterminism:
    def test_verify_all_default_output_is_pinned(self, capsys):
        for _ in ("cold", "warm"):
            code, out, err = run_cli(capsys, "verify", "all")
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256

    def test_verify_all_is_byte_identical_across_runs(self, capsys, tmp_path):
        cfg = tmp_path / "plethy.cfg"
        cache_path = tmp_path / "mn.txt"
        write_config(
            cfg,
            cache_path=str(cache_path),
            thm1_n=2,
            thm1_d=2,
            littlewood_size=2,
            thm2_n=2,
            thm2_d=2,
        )
        outputs = []
        for name in ("first.json", "second.json", "cold.json"):
            if name == "cold.json" and cache_path.exists():
                os.remove(cache_path)
            target = tmp_path / name
            code, out, err = run_cli(
                capsys, "--config", str(cfg), "verify", "all", "--out", str(target)
            )
            assert code == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        data = json.loads(outputs[0])
        assert data["status"] == "PASS"
        assert all(report["elapsed_ms"] == 0 for report in data["reports"])

    def test_cache_persists_between_runs(self, capsys, tmp_path):
        cfg = tmp_path / "plethy.cfg"
        cache_path = tmp_path / "mn.txt"
        write_config(cfg, cache_path=str(cache_path))
        run_cli(capsys, "--config", str(cfg), "boxplus", "2", "--d", "2")
        first = len(CharCache(str(cache_path)))
        assert first > 0
        run_cli(capsys, "--config", str(cfg), "boxplus", "2", "--d", "2")
        assert len(CharCache(str(cache_path))) == first

    def test_cache_file_bytes_are_pinned(self, capsys, tmp_path):
        cfg = tmp_path / "plethy.cfg"
        cache_path = tmp_path / "mn.txt"
        write_config(cfg, cache_path=str(cache_path))
        assert run_cli(capsys, "--config", str(cfg), "verify", "all")[0] == 0
        assert run_cli(capsys, "--config", str(cfg), "table", "8")[0] == 0
        assert hashlib.sha256(cache_path.read_bytes()).hexdigest() == VERIFY_ALL_TABLE_8_CACHE_SHA256
        assert len(CharCache(str(cache_path))) == VERIFY_ALL_TABLE_8_CACHE_ENTRIES

    def test_cache_file_bytes_do_not_depend_on_command_order(self, capsys, tmp_path):
        files = []
        for name, order in (("first", ("verify all", "table 8")), ("second", ("table 8", "verify all"))):
            cfg = tmp_path / f"{name}.cfg"
            cache_path = tmp_path / f"{name}.txt"
            write_config(cfg, cache_path=str(cache_path))
            for command in order:
                assert run_cli(capsys, "--config", str(cfg), *command.split())[0] == 0
            files.append(cache_path.read_bytes())
        assert files[0] == files[1]
