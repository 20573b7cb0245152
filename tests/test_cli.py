import json
import subprocess
import sys

from sigmahg.cli import run


def invoke(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(argv, capsys):
    code, out, err = invoke(argv + ["--format", "json"], capsys)
    payload = json.loads(out) if out.strip() else None
    return code, payload, err


SPEC = ["--n", "10", "--q", "5", "--sigma", "4,3,2"]
ONES_1100 = ["--n", "1100", "--q", "1", "--sigma", ",".join(["1"] * 1100)]


class TestAlphaCommand:
    def test_single_k(self, capsys):
        code, payload, _ = invoke_json(["alpha", *SPEC, "--k", "7"], capsys)
        assert code == 0
        assert payload["alpha_k"] == 21
        assert sum(payload["profile"]) == 21
        assert payload["spec"]["sigma"] == [4, 3, 2]

    def test_all_is_weakly_increasing(self, capsys):
        code, payload, _ = invoke_json(["alpha", *SPEC, "--all"], capsys)
        assert code == 0
        values = [row["alpha_k"] for row in payload["values"]]
        assert values == sorted(values)
        assert len(values) == 8

    def test_sigma_order_insensitive(self, capsys):
        code, a, _ = invoke_json(
            ["alpha", "--n", "10", "--q", "5", "--sigma", "2,3,4", "--k", "7"], capsys
        )
        _, b, _ = invoke_json(
            ["alpha", "--n", "10", "--q", "5", "--sigma", "4,3,2", "--k", "7"], capsys
        )
        assert a == b

    def test_thousand_parts_need_no_recursion(self, capsys):
        code, payload, err = invoke_json(["alpha", *ONES_1100, "--k", "1"], capsys)
        assert code == 0 and err == ""
        assert payload["alpha_k"] == 1  # q = 1: any two vertices share an edge

    def test_huge_malformed_spec_gives_a_short_error(self, capsys, tmp_path):
        blob = tmp_path / "spec.json"
        blob.write_text(json.dumps({"q": 3, "sigma": [2, 1], "junk": "x" * 100_000}))
        code, out, err = invoke(["alpha", "--spec", str(blob), "--k", "1"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: malformed spec object: {'q': 3, 'sigma': [2, 1], 'junk'")
        assert err.count("\n") == 1 and len(err.encode()) < 1000
        for bad_part in ("x", 0):
            blob.write_text(json.dumps({"n": 3, "q": 3, "sigma": [bad_part] * 100_000}))
            code, out, err = invoke(["alpha", "--spec", str(blob), "--k", "1"], capsys)
            assert code == 1 and out == "" and err.startswith("error: sigma parts must be ")
            assert err.count("\n") == 1 and len(err.encode()) < 1000

    def test_missing_k_is_invalid(self, capsys):
        code, _, err = invoke(["alpha", *SPEC], capsys)
        assert code == 1 and "error" in err

    def test_bad_k_is_invalid(self, capsys):
        code, _, _ = invoke(["alpha", *SPEC, "--k", "9"], capsys)
        assert code == 1


class TestAlphaClosedCommand:
    def test_value_and_index(self, capsys):
        code, payload, _ = invoke_json(["alpha-closed", *SPEC], capsys)
        assert code == 0
        assert payload["alpha"] == 30 and payload["j"] == 1


class TestBoundsCommand:
    def test_feasible_pair(self, capsys):
        code, payload, _ = invoke_json(
            ["bounds", *SPEC, "--alpha", "2", "--beta", "8"], capsys
        )
        assert code == 0
        assert payload["alpha_beta_independence"] == 30
        assert payload["independence"] == 30
        assert payload["feasible"] is True
        assert payload["chi_lower"] == 2

    def test_huge_n_answers_at_once(self, capsys):
        spec_args = ["--n", "1000000000", "--q", "5", "--sigma", "4,3,2"]
        code, payload, _ = invoke_json(
            ["bounds", *spec_args, "--alpha", "2", "--beta", "8"], capsys
        )
        assert code == 0
        assert payload["alpha_beta_independence"] == payload["independence"] == 3 * 10**9

    def test_bad_order_is_invalid(self, capsys):
        code, _, _ = invoke(["bounds", *SPEC, "--alpha", "5", "--beta", "2"], capsys)
        assert code == 1


class TestMatchCommand:
    def test_diagonal_auto(self, capsys):
        code, payload, _ = invoke_json(
            ["match", "--n", "3", "--q", "9", "--sigma", "4,3,2"], capsys
        )
        assert code == 0
        assert payload["nu"] == 3
        assert payload["unmatched_count"] == 0
        assert payload["strategy"] == "diagonal"

    def test_regime_error_exit_code(self, capsys):
        code, _, err = invoke(
            ["match", "--n", "4", "--q", "6", "--sigma", "2,2,1", "--strategy", "rgood"],
            capsys,
        )
        assert code == 2

    def test_permissive_flag_surfaces(self, capsys):
        code, payload, _ = invoke_json(
            [
                "match",
                "--n", "4", "--q", "13", "--sigma", "2,2,1",
                "--strategy", "rgood", "--permissive",
            ],
            capsys,
        )
        assert code == 0
        assert payload["unproven_regime"] is True

    def test_forty_parts_return_at_once(self):
        # 40 parts have 2^40 subsets: the r-good split must not try them all
        proc = subprocess.run(
            [sys.executable, "-m", "sigmahg", "match", "--n", "40", "--q", "1",
             "--sigma", ",".join(["1"] * 40), "--format", "json"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["nu"] == 1

    def test_few_large_parts_return_at_once(self):
        # r = 10^8 + 1: neither the all-ones guard nor the r-good split may
        # do work that grows with r
        spec_args = ["--n", "2", "--q", "3", "--sigma", "100000000,1"]
        for strategy, code in (("auto", 0), ("rgood", 2)):
            proc = subprocess.run(
                [sys.executable, "-m", "sigmahg", "match", *spec_args,
                 "--strategy", strategy, "--format", "json"],
                capture_output=True,
                text=True,
                timeout=30,
            )
            assert proc.returncode == code, proc.stderr
        assert proc.stdout == ""
        assert "has no edges" in proc.stderr

    def test_emit_round_trips_through_verify(self, capsys, tmp_path):
        for spec_args in (
            ["--n", "3", "--q", "9", "--sigma", "4,3,2"],
            ["--n", "6", "--q", "4", "--sigma", "2,1"],
            ["--n", "4", "--q", "5", "--sigma", "2,2"],
        ):
            code, payload, _ = invoke_json(["match", *spec_args, "--emit"], capsys)
            assert code == 0
            blob = tmp_path / "matching.json"
            blob.write_text(json.dumps(payload))
            code, verdict, _ = invoke_json(
                ["verify", *spec_args, "--matching", str(blob)], capsys
            )
            assert code == 0
            assert verdict["ok"] is True


class TestVerifyCommand:
    def test_tampered_matching_exits_four(self, capsys, tmp_path):
        spec_args = ["--n", "3", "--q", "9", "--sigma", "4,3,2"]
        code, payload, _ = invoke_json(["match", *spec_args, "--emit"], capsys)
        matching = payload["matching"]
        # steal a vertex: move row 1 of class 1 into a second edge too
        matching["edges"][1][0]["rows"][0] = 1
        blob = tmp_path / "tampered.json"
        blob.write_text(json.dumps({"matching": matching}))
        code, verdict, _ = invoke_json(
            ["verify", *spec_args, "--matching", str(blob)], capsys
        )
        assert code == 4
        assert verdict["ok"] is False
        assert verdict["violations"]

    def test_missing_file_is_invalid(self, capsys, tmp_path):
        # missing, undecodable or malformed input files: one error line each
        good_spec = tmp_path / "spec.json"
        good_spec.write_text('{"n": 3, "q": 3, "sigma": [2, 1]}')
        empty = tmp_path / "empty.json"
        empty.write_text('{"edges": [], "unmatched": []}')
        bad_specs = [
            '{"n": "abc", "q": 3, "sigma": [2, 1]}',
            '{"n": 3, "q": Infinity, "sigma": [2, 1]}',
            '{"n": NaN, "q": 3, "sigma": [2, 1]}',
            '{"n": 3, "q": 3, "sigma": [2, -Infinity]}',
            # grids too large to index: n*q above 2**63 and above 2**60
            '{"n": 1e19, "q": 1, "sigma": [1]}',
            '{"n": 4611686018427387904, "q": 4, "sigma": [2, 1]}',
            '{"n": 2305843009213693952, "q": 1, "sigma": [1]}',
        ]
        bad_matchings = [
            '{"edges": [[{"class": 1, "rows": ["x"]}]], "unmatched": []}',
            '{"edges": [[{"class": 1, "rows": [Infinity]}]], "unmatched": []}',
            '{"edges": [[{"class": NaN, "rows": [1]}]], "unmatched": []}',
            '{"edges": [], "unmatched": [{"class": "x", "row": 1}]}',
            '{"edges": [], "unmatched": [{"class": 1, "row": -Infinity}]}',
        ]
        cases = [["--n", "3", "--q", "3", "--sigma", "2,1", "--matching", "/nope"]]
        for i, text in enumerate(bad_specs):
            blob = tmp_path / f"spec{i}.json"
            blob.write_text(text)
            cases.append(["--spec", str(blob), "--matching", str(empty)])
        for i, text in enumerate(bad_matchings):
            blob = tmp_path / f"matching{i}.json"
            blob.write_text(text)
            cases.append(["--spec", str(good_spec), "--matching", str(blob)])
        not_utf8 = tmp_path / "binary.json"
        not_utf8.write_bytes(b"\xff\xfe\x00")
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        for blob in (not_utf8, deep):
            cases.append(["--spec", str(blob), "--matching", str(empty)])
            cases.append(["--spec", str(good_spec), "--matching", str(blob)])
        for argv in cases:
            code, out, err = invoke(["verify", *argv], capsys)
            assert code == 1 and out == "", argv
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        # an error the library already reports keeps its own message
        blob = tmp_path / "empty_rows.json"
        blob.write_text('{"edges": [[{"class": 1, "rows": []}]], "unmatched": []}')
        code, _, err = invoke(["verify", "--spec", str(good_spec), "--matching", str(blob)], capsys)
        assert code == 1 and err == "error: edge part with empty row set\n"

    def test_huge_malformed_matching_gives_a_short_error(self, capsys, tmp_path):
        good_spec = tmp_path / "spec.json"
        good_spec.write_text('{"n": 3, "q": 3, "sigma": [2, 1]}')
        blob = tmp_path / "flat.json"
        blob.write_text(json.dumps(list(range(1_000_000))))
        code, out, err = invoke(
            ["verify", "--spec", str(good_spec), "--matching", str(blob)], capsys
        )
        assert code == 1 and out == ""
        assert err.startswith("error: malformed matching object: [0, 1, 2, ")
        assert err.count("\n") == 1 and len(err.encode()) < 1000

    def test_piped_emit_verifies_from_stdin(self):
        spec_args = ["--n", "3", "--q", "9", "--sigma", "4,3,2"]
        emit = subprocess.run(
            [sys.executable, "-m", "sigmahg", "match", *spec_args, "--emit", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert emit.returncode == 0
        verify = subprocess.run(
            [sys.executable, "-m", "sigmahg", "verify", *spec_args, "--matching", "-"],
            input=emit.stdout,
            capture_output=True,
            text=True,
        )
        assert verify.returncode == 0


class TestEdgesCommand:
    def test_count(self, capsys):
        code, payload, _ = invoke_json(
            ["edges", "--n", "3", "--q", "2", "--sigma", "2,1"], capsys
        )
        assert code == 0 and payload["count"] == 12

    def test_list(self, capsys):
        code, payload, _ = invoke_json(
            ["edges", "--n", "2", "--q", "2", "--sigma", "1,1", "--list"], capsys
        )
        assert code == 0
        assert len(payload["edges"]) == payload["count"] == 4

    def test_list_thousand_parts(self, capsys):
        code, payload, err = invoke_json(["edges", *ONES_1100, "--list"], capsys)
        assert code == 0 and err == ""
        assert payload["count"] == len(payload["edges"]) == 1

    def test_list_over_budget_exit_code(self, capsys):
        code, out, err = invoke(
            ["edges", "--n", "100", "--q", "100", "--sigma", "3,2", "--list"], capsys
        )
        assert code == 3 and "budget" in err
        assert out == ""


class TestOracleCommand:
    def test_alpha(self, capsys):
        code, payload, _ = invoke_json(
            ["oracle", "alpha", "--n", "3", "--q", "3", "--sigma", "2,1", "--k", "1"],
            capsys,
        )
        assert code == 0 and payload["alpha_k"] == 1

    def test_match(self, capsys):
        code, payload, _ = invoke_json(
            ["oracle", "match", "--n", "3", "--q", "3", "--sigma", "2,1"], capsys
        )
        assert code == 0 and payload["nu"] == 3

    def test_colouring(self, capsys):
        code, payload, _ = invoke_json(
            [
                "oracle", "colouring",
                "--n", "3", "--q", "2", "--sigma", "2,1",
                "--alpha", "2", "--beta", "2",
            ],
            capsys,
        )
        assert code == 0
        assert payload["chi"] is not None

    def test_intersection(self, capsys):
        code, payload, _ = invoke_json(
            [
                "oracle", "intersection",
                "--n", "3", "--q", "2", "--sigma", "2,1",
                "--profile", "1,1,1",
            ],
            capsys,
        )
        assert code == 0 and payload["max_intersection"] == 2

    def test_malformed_profile_and_budget_are_invalid(self, capsys, monkeypatch):
        spec_args = ["--n", "3", "--q", "2", "--sigma", "2,1"]
        code, out, err = invoke(["oracle", "intersection", *spec_args, "--profile", "a,b"], capsys)
        assert code == 1 and out == ""
        assert err == "error: --profile must be comma-separated integers, got 'a,b'\n"
        for raw in ("inf", "nan", "1e400"):
            monkeypatch.setenv("SIGMA_HYPER_BUDGET", raw)
            code, out, err = invoke(["oracle", "match", *spec_args], capsys)
            assert code == 1 and out == "", raw
            assert err == f"error: SIGMA_HYPER_BUDGET must be finite, got {raw!r}\n"

    def test_huge_malformed_arguments_give_a_short_error(self, capsys, monkeypatch):
        junk = ",".join(["x"] * 30_000)  # 60 kB
        spec_args = ["--n", "3", "--q", "2", "--sigma", "2,1"]
        for argv in (
            ["match", "--n", "3", "--q", "3", "--sigma", junk],
            ["oracle", "intersection", *spec_args, "--profile", junk],
        ):
            code, out, err = invoke(argv, capsys)
            assert code == 1 and out == "" and err.startswith("error: ")
            assert err.count("\n") == 1 and len(err.encode()) < 1000
        monkeypatch.setenv("SIGMA_HYPER_BUDGET", junk)
        code, out, err = invoke(["oracle", "match", *spec_args], capsys)
        assert code == 1 and out == "" and err.startswith("error: SIGMA_HYPER_BUDGET ")
        assert err.count("\n") == 1 and len(err.encode()) < 1000

    def test_budget_exit_code(self, capsys, monkeypatch):
        # C(32, 16) distinct placements of sixteen equal parts are refused
        # before any is built
        ones = ",".join(["1"] * 16)
        code, _, err = invoke(
            ["oracle", "alpha", "--n", "32", "--q", "1", "--sigma", ones, "--k", "1"], capsys
        )
        assert code == 3 and err.startswith("error: bf_alpha_k: ")
        monkeypatch.setenv("SIGMA_HYPER_BUDGET", "0.1")
        code, _, _ = invoke(
            ["oracle", "match", "--n", "4", "--q", "4", "--sigma", "2,1"], capsys
        )
        assert code == 3


class TestSweepCommand:
    def test_requires_flag(self, capsys):
        code, _, _ = invoke(["sweep"], capsys)
        assert code == 1

    def test_values_match_library(self, capsys):
        from sigmahg import alpha_k, make_spec

        code, payload, _ = invoke_json(
            ["sweep", "--paper-example", "--n-max", "5", "--q-max", "6"], capsys
        )
        assert code == 0
        assert payload["sigma"] == [4, 3, 2]
        for row in payload["entries"]:
            spec = make_spec(row["n"], row["q"], [4, 3, 2])
            assert row["alpha_k"] == alpha_k(spec, row["k"])


class TestPlumbing:
    def test_byte_identical_output(self, capsys):
        _, out1, _ = invoke(["alpha", *SPEC, "--all", "--format", "json"], capsys)
        _, out2, _ = invoke(["alpha", *SPEC, "--all", "--format", "json"], capsys)
        assert out1 == out2

    def test_table_format_renders(self, capsys):
        code, out, _ = invoke(["alpha", *SPEC, "--k", "7"], capsys)
        assert code == 0
        assert "alpha_k: 21" in out

    def test_spec_file_source(self, capsys, tmp_path):
        blob = tmp_path / "spec.json"
        blob.write_text(json.dumps({"n": 10, "q": 5, "sigma": [4, 3, 2]}))
        code, payload, _ = invoke_json(
            ["alpha", "--spec", str(blob), "--k", "7"], capsys
        )
        assert code == 0 and payload["alpha_k"] == 21

    def test_conflicting_spec_sources(self, capsys, tmp_path):
        blob = tmp_path / "spec.json"
        blob.write_text(json.dumps({"n": 10, "q": 5, "sigma": [4, 3, 2]}))
        code, _, _ = invoke(
            ["alpha", "--spec", str(blob), "--n", "3", "--k", "7"], capsys
        )
        assert code == 1

    def test_incomplete_inline_spec(self, capsys):
        code, _, _ = invoke(["alpha", "--n", "3", "--q", "3", "--k", "1"], capsys)
        assert code == 1

    def test_import_leaves_numpy_unloaded(self):
        # numpy is not a runtime dependency, not even of the colouring oracle
        child = (
            "import sys, sigmahg.cli\n"
            "from sigmahg import make_spec, oracle\n"
            "oracle.bf_colouring_spectrum(make_spec(3, 2, [2, 1]), 2, 2)\n"
            "print('numpy' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sigmahg", "alpha", *SPEC, "--k", "7", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["alpha_k"] == 21
