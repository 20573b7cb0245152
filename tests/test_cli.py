import json
import subprocess
import sys

import pytest

from sigmahg import matching
from sigmahg.cli import build_parser, run


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

    def test_spec_file_with_non_integer_numbers_is_invalid(self, capsys, tmp_path):
        blob = tmp_path / "spec.json"
        blob.write_text('{"n": 2.9, "q": true, "sigma": [1.5, "1"]}')
        code, out, err = invoke(["match", "--spec", str(blob)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: malformed spec object: ") and err.count("\n") == 1

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

    def test_regime_2_that_would_lay_nothing_exits_two(self, capsys):
        # n < r and no full strip: regime 2 has no edge to lay
        code, out, err = invoke(
            ["match", "--n", "2", "--q", "2", "--sigma", "2,1", "--strategy", "rgood"], capsys
        )
        assert code == 2 and out == ""
        assert "with n >= 3 or q >= 5" in err

    def test_permissive_flag_surfaces(self, capsys):
        # rgood builds below the paper's height threshold and says so; no
        # option selects a stricter gate
        argv = ["match", "--n", "6", "--q", "13", "--sigma", "2,2,1", "--strategy", "rgood"]
        code, payload, _ = invoke_json(argv, capsys)
        assert code == 0
        assert payload["unproven_regime"] is True
        code, _, err = invoke(argv + ["--permissive"], capsys)
        assert code == 1 and "--permissive" in err

    def test_strategy_choices_are_the_strategy_table(self):
        parser = build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        strategy = next(a for a in commands["match"]._actions if a.dest == "strategy")
        assert strategy.choices == tuple(matching.STRATEGIES)

    def test_grid_too_large_to_build_is_invalid(self, capsys):
        # 10^20 classes overflow the first list a construction makes, so
        # this allocates nothing
        for strategy in ("auto", "diagonal", "rgood"):
            code, out, err = invoke(
                ["match", "--n", str(10**20), "--q", "5", "--sigma", "3,2",
                 "--strategy", strategy],
                capsys,
            )
            assert code == 1 and out == "", strategy
            assert err.startswith("error: ") and "too large" in err and err.count("\n") == 1

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


    def test_emit_table(self, capsys):
        argv = ["match", "--n", "2", "--q", "4", "--sigma", "2,1", "--emit"]
        code, out, err = invoke(argv, capsys)
        assert code == 0 and err == ""
        assert out == (
            "spec:\n  n: 2\n  q: 4\n  sigma:\n    - 2\n    - 1\n"
            "nu: 2\nunmatched_count: 2\nstrategy: greedy\n"
            "certificates:\n  name: nu_upper\n  value: 2\nunproven_regime: False\n"
            "matching:\n  edges:\n"
            "    class: 1\n    rows:\n      - 1\n      - 2\n    class: 2\n    rows:\n      - 1\n"
            "    class: 1\n    rows:\n      - 3\n    class: 2\n    rows:\n      - 2\n      - 3\n"
            "  unmatched:\n    class: 1\n    row: 4\n    class: 2\n    row: 4\n"
        )


    # a wrapper process waits for the one match child, so RUSAGE_CHILDREN is
    # that child's peak RSS alone; the output is hashed as it arrives
    EMIT_CHILD = """if True:
        import hashlib, resource, subprocess, sys
        child = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)
        digest, size = hashlib.sha256(), 0
        while chunk := child.stdout.read(1 << 16):
            digest.update(chunk)
            size += len(chunk)
        code = child.wait()  # only a reaped child counts in RUSAGE_CHILDREN
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        print(code, size, digest.hexdigest(), peak)
    """

    @pytest.mark.parametrize("n, q, sigma, size, digest, limit_mb", [
        (1000, 1000, "3,2", 50450529,
         "cc18d271d03c1c6f8c15cfb5dad8cc4d947fc380c1764060f6c23ad225be081e", 60),
        (1, 500000, "2,1", 29389221,
         "f0464b4ea00d82484cc03845a295fdf57f8959ed81d838b704e8cbb9f16aa46f", 40),
        (29, 2536, "2" + ",1" * 12, 6477276,
         "8a8680bfd9a044a30d7f9ee60c27fb81f357aa564968d672aa7f56f41f72f3c9", 35),
    ])
    def test_emit_child_writes_in_small_memory(self, n, q, sigma, size, digest, limit_mb):
        # the matching is written a block at a time: the child's peak stays
        # far below its output (50.5 MB at n = q = 1000) and no copy is made
        argv = ["match", "--n", str(n), "--q", str(q), "--sigma", sigma, "--emit"]
        proc = subprocess.run(
            [sys.executable, "-c", self.EMIT_CHILD, sys.executable, "-m", "sigmahg", *argv,
             "--format", "json"],
            capture_output=True, text=True, check=True,
        )
        code, out_size, out_digest, peak = proc.stdout.split()
        assert (int(code), int(out_size), out_digest) == (0, size, digest)
        peak_mb = int(peak) / (2**20 if sys.platform == "darwin" else 2**10)
        assert 0 < peak_mb < limit_mb, f"peak RSS {peak_mb:.1f} MB"


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
            # a string or an object where a list belongs, which would iterate
            # as an empty list
            '{"edges": "", "unmatched": ""}',
            '{"edges": {}, "unmatched": {}}',
            '{"edges": [], "unmatched": {}}',
            '{"edges": [{}], "unmatched": []}',
            '{"edges": [[{"class": 1, "rows": {}}]], "unmatched": []}',
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

    @pytest.mark.parametrize("edge", [
        [{"class": 1, "rows": [1.9, 2]}, {"class": 2, "rows": [1]}],
        [{"class": 1, "rows": [1, 2]}, {"class": 2, "rows": [True]}],
        [{"class": 1, "rows": ["1", 2]}, {"class": 2, "rows": [1]}],
        [{"class": "1", "rows": [1, 2]}, {"class": 2, "rows": [1]}],
        [{"class": 1, "rows": [1, 1, 2]}, {"class": 2, "rows": [1]}],
    ], ids=["float-row", "bool-row", "string-row", "string-class", "repeated-row"])
    def test_matching_that_needs_coercion_is_invalid(self, capsys, tmp_path, edge):
        # each would read as the one valid edge of H(2, 3, 2 | (2,1))
        spec_args = ["--n", "2", "--q", "2", "--sigma", "2,1"]
        unmatched = [{"class": 2, "row": 2}]
        blob = tmp_path / "matching.json"
        blob.write_text(json.dumps({"edges": [edge], "unmatched": unmatched}))
        code, out, err = invoke(["verify", *spec_args, "--matching", str(blob)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: malformed matching object: ") and err.count("\n") == 1

    def test_unmatched_cell_listed_twice_is_invalid(self, capsys, tmp_path):
        spec_args = ["--n", "2", "--q", "2", "--sigma", "2,1"]
        edge = [{"class": 1, "rows": [1, 2]}, {"class": 2, "rows": [1]}]
        blob = tmp_path / "matching.json"
        for unmatched, want in (([{"class": 2, "row": 2}], 0), ([{"class": 2, "row": 2}] * 2, 1)):
            blob.write_text(json.dumps({"edges": [edge], "unmatched": unmatched}))
            code, out, err = invoke(["verify", *spec_args, "--matching", str(blob)], capsys)
            assert code == want, err
        assert out == "" and err.startswith("error: malformed matching object: ")

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
        for which, message in (
            ("alpha", "oracle alpha needs --k"),
            ("colouring", "oracle colouring needs --alpha and --beta"),
            ("intersection", "oracle intersection needs --profile, e.g. 3,1,0"),
        ):
            code, out, err = invoke(["oracle", which, *spec_args], capsys)
            assert code == 1 and out == "" and err == f"error: {message}\n", which
        code, out, err = invoke(["oracle", "colouring", *spec_args, "--alpha", "1"], capsys)
        assert code == 1 and out == "" and err == "error: oracle colouring needs --alpha and --beta\n"
        for raw in ("0", "-1"):
            monkeypatch.setenv("SIGMA_HYPER_BUDGET", raw)
            code, out, err = invoke(["oracle", "match", *spec_args], capsys)
            assert code == 1 and out == "", raw
            assert err == "error: SIGMA_HYPER_BUDGET must be positive\n"
        for raw in ("inf", "nan", "1e400"):
            monkeypatch.setenv("SIGMA_HYPER_BUDGET", raw)
            code, out, err = invoke(["oracle", "match", *spec_args], capsys)
            assert code == 1 and out == "", raw
            assert err == f"error: SIGMA_HYPER_BUDGET must be finite, got {raw!r}\n"
        # finite, but the scaled limits overflow an int
        monkeypatch.setenv("SIGMA_HYPER_BUDGET", "1e308")
        for argv in (["oracle", "match", *spec_args], ["edges", *spec_args, "--list"]):
            code, out, err = invoke(argv, capsys)
            assert code == 1 and out == "", argv
            assert err == "error: SIGMA_HYPER_BUDGET is too large, got '1e308'\n"

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

    def test_edge_budget_refusals(self, capsys):
        code, out, err = invoke(
            ["edges", "--n", "100", "--q", "100", "--sigma", "3,2", "--list"], capsys
        )
        assert code == 3 and out == ""
        assert err == "error: edges --list: 7924108500000 edges exceeds budget 200000\n"
        code, out, err = invoke(
            ["oracle", "intersection", "--n", "3", "--q", "60", "--sigma", "2,1",
             "--profile", "60,0,0"],
            capsys,
        )
        assert code == 3 and out == ""  # 3!/1! placements times C(60, 2) * 60 rows
        assert err == "error: bf_max_intersection: 637200 edges exceeds budget 200000\n"

    def test_intersection_budget_checked_before_the_set_is_built(self):
        # 3 * 10^6 rows took about half a gigabyte as a VertexSet; the edge
        # count is refused first, and a malformed profile is still invalid input
        child = (
            "import resource, subprocess, sys, time\n"
            "argv = [sys.executable, '-m', 'sigmahg', 'oracle', 'intersection', '--n', '3',\n"
            "        '--q', '3000000', '--sigma', '2,1', '--profile', sys.argv[1]]\n"
            "start = time.perf_counter()\n"
            "proc = subprocess.run(argv, capture_output=True, text=True)\n"
            "elapsed = time.perf_counter() - start\n"
            "rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024\n"
            "print(proc.returncode, elapsed, rss, proc.stderr.count('\\n'))\n"
        )
        for profile, code in (("3000000,0,0", 3), ("3000001,0,0", 1), ("1,1,1,1", 1)):
            proc = subprocess.run(
                [sys.executable, "-c", child, profile], capture_output=True, text=True, timeout=60
            )
            assert proc.returncode == 0, proc.stderr
            got, elapsed, rss, lines = proc.stdout.split()
            assert (int(got), int(lines)) == (code, 1), profile
            assert float(elapsed) < 5 and float(rss) < 50, (profile, elapsed, rss)

    def test_edgeless_intersection_answers_without_building_the_set(self):
        # 10^6 rows took 1.45 s and 139 MB as a VertexSet to print 0; no
        # edge exists, so the answer needs no set
        child = (
            "import resource, subprocess, sys, time\n"
            "argv = [sys.executable, '-m', 'sigmahg', 'oracle', 'intersection', '--n', '1',\n"
            "        '--q', '1000000', '--sigma', '2,1', '--profile', '1000000', '--format', 'json']\n"
            "start = time.perf_counter()\n"
            "proc = subprocess.run(argv, capture_output=True, text=True)\n"
            "elapsed = time.perf_counter() - start\n"
            "rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024\n"
            "print(proc.returncode, elapsed, rss)\n"
            "print(proc.stdout)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        head, out = proc.stdout.split("\n", 1)
        code, elapsed, rss = head.split()
        assert code == "0" and json.loads(out)["max_intersection"] == 0
        assert float(elapsed) < 5 and float(rss) < 50, (elapsed, rss)

    def test_edgeless_intersection_still_refuses_a_malformed_profile(self, capsys):
        for profile in ("1000001", "1,1"):
            code, out, err = invoke(
                ["oracle", "intersection", "--n", "1", "--q", "1000000", "--sigma", "2,1",
                 "--profile", profile],
                capsys,
            )
            assert (code, out, err.count("\n")) == (1, "", 1), profile

    def test_edgeless_colouring_answers_past_the_vertex_budget(self, capsys):
        code, payload, _ = invoke_json(
            ["oracle", "colouring", "--n", "1", "--q", "40", "--sigma", "2,1",
             "--alpha", "1", "--beta", "2"],
            capsys,
        )
        assert code == 0
        assert (payload["chi"], payload["chi_bar"]) == (1, 40)


class TestSweepCommand:
    def test_requires_flag(self, capsys):
        code, _, _ = invoke(["sweep"], capsys)
        assert code == 1

    def test_spec_options_are_invalid(self, capsys, tmp_path):
        # the sweep's sigma is fixed, so a spec option is an error, not ignored
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"n": 3, "q": 3, "sigma": [1]}')
        for extra in (
            ["--n", "3", "--q", "3", "--sigma", "1"],
            ["--sigma", "3,2"],
            ["--spec", str(spec_file)],
        ):
            code, out, err = invoke(["sweep", "--paper-example", *extra], capsys)
            assert code == 1 and out == "", extra
            assert err.startswith("error: ") and err.count("\n") == 1, extra

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

    def test_each_subcommand_loads_only_its_modules(self):
        # a call imports the submodules its subcommand uses and nothing of
        # dataclasses or inspect; the child reports its exit code and the
        # modules it loaded on stderr
        child = (
            "import json, runpy, sys\n"
            "sys.argv = ['sigmahg', *json.loads(sys.argv[1])]\n"
            "try:\n"
            "    runpy.run_module('sigmahg', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "loaded = [m for m in sys.modules if m.startswith('sigmahg')\n"
            "          or m in ('dataclasses', 'inspect')]\n"
            "sys.stderr.write(json.dumps([code, sorted(loaded)]))\n"
        )
        spec = ["--n", "5", "--q", "3", "--sigma", "2,1"]
        base = {"sigmahg", "sigmahg.cli", "sigmahg.core"}
        cases = [
            (["alpha", *spec, "--k", "1"], 0, {"sigmahg.independence"}),
            (["alpha-closed", *spec], 0, {"sigmahg.independence"}),
            (["bounds", *spec, "--alpha", "1", "--beta", "2"], 0, {"sigmahg.independence"}),
            (["sweep", "--paper-example", "--n-max", "3", "--q-max", "4"], 0,
             {"sigmahg.independence"}),
            (["match", *spec, "--emit", "--format", "json"], 0, {"sigmahg.matching"}),
            (["verify", *spec, "--matching", "-"], 4, set()),
            (["edges", *spec], 0, set()),
            # --list is capped by the oracle budget's max_edges
            (["edges", *spec, "--list"], 0, {"sigmahg.oracle"}),
            (["oracle", "match", *spec], 0, {"sigmahg.oracle"}),
        ]
        for argv, code, extra in cases:
            proc = subprocess.run(
                [sys.executable, "-c", child, json.dumps(argv)],
                input='{"edges": [], "unmatched": []}',
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, (argv, proc.stderr)
            assert json.loads(proc.stderr) == [code, sorted(base | extra)], argv
        # a bare import loads no submodule; reading one as an attribute does
        bare = (
            "import json, sys, sigmahg\n"
            "before = [m for m in sys.modules if m.startswith('sigmahg')]\n"
            "sigmahg.matching.best_matching\n"
            "print(json.dumps([before, sorted(m for m in sys.modules if m.startswith('sigmahg'))]))"
        )
        proc = subprocess.run([sys.executable, "-c", bare], capture_output=True, text=True)
        assert json.loads(proc.stdout) == [["sigmahg"], ["sigmahg", "sigmahg.core", "sigmahg.matching"]]

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sigmahg", "alpha", *SPEC, "--k", "7", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["alpha_k"] == 21
