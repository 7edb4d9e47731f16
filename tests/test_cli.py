"""CLI commands as thin bindings over the library, including exit codes."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import legendre_pairs
from legendre_pairs.cli import build_parser, main
from legendre_pairs.pipeline import load_record_sets
from legendre_pairs.search import match_candidates

import known_pairs as kp


#: per subcommand: (option strings, dest, required, default, choices, nargs)
#: of every action but --help
CLI_SURFACE = {
    "spectrum": {((), "l", True, None, None, None)},
    "subgroups": {
        ((), "l", True, None, None, None),
        (("--order",), "order", True, None, None, None),
    },
    "orbits": {
        ((), "l", True, None, None, None),
        (("--subgroup",), "subgroup", True, None, None, None),
    },
    "alg2": {
        ((), "l", True, None, None, None),
        (("--subgroup",), "subgroup", True, None, None, None),
        (("--counts",), "counts", True, None, None, None),
        (("--admissible",), "admissible", False, False, None, 0),
    },
    "decode": {
        (("--l",), "l", True, None, None, None),
        (("--subgroup",), "subgroup", True, None, None, None),
        (("--indices",), "indices", False, None, None, None),
        (("--rank",), "rank", False, None, None, None),
        (("--composition",), "composition", False, None, None, None),
        (("--polarity",), "polarity", False, "plus", ("plus", "minus"), None),
    },
    "search": {
        (("--l",), "l", True, None, None, None),
        (("--subgroup",), "subgroup", True, None, None, None),
        (("--composition",), "composition", True, None, None, None),
        (("--polarity",), "polarity", False, "plus", ("plus", "minus"), None),
        (("--range",), "range", False, None, None, None),
        (("--out",), "out", True, None, None, None),
        (("--workers",), "workers", False, 1, None, None),
    },
    "match": {
        (("--l",), "l", True, None, None, None),
        ((), "records", True, None, None, "+"),
        (("--emit-pairs",), "emit_pairs", False, None, None, None),
    },
    "verify": {
        (("--pairs",), "pairs", True, None, None, None),
        (("--report",), "report", False, None, None, None),
    },
    "hadamard": {
        (("--pairs",), "pairs", True, None, None, None),
        (("--out",), "out", True, None, None, None),
    },
    "pipeline": {
        (("--l",), "l", True, None, None, None),
        (("--subgroup",), "subgroup", True, None, None, None),
        (("--compositions",), "compositions", False, None, None, None),
        (("--polarity",), "polarity", False, "both", ("plus", "minus", "both"), None),
        (("--out",), "out", True, None, None, None),
        (("--workers",), "workers", False, 1, None, None),
    },
    "oracle": {
        (("--l",), "l", True, None, None, None),
        (("--subgroup",), "subgroup", False, None, None, None),
        (("--show",), "show", False, False, None, 0),
    },
}


def test_cli_surface_is_unchanged():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: {
            (tuple(a.option_strings), a.dest, a.required, a.default, a.choices, a.nargs)
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, parser in subparsers.choices.items()
    }
    assert surface == CLI_SURFACE
    assert sum(1 for actions in surface.values() for opts, *_ in actions if opts) == 33


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpectrumCommand:
    def test_117_table(self, capsys):
        code, out, _ = run(capsys, "spectrum", "117")
        assert code == 0
        assert "[4, 232]" in out and "discarded: no compatible assignments" in out
        assert "spectrum: [(28, 208), (64, 172), (112, 124)]" in out

    def test_bad_length(self, capsys):
        code, _, err = run(capsys, "spectrum", "10")
        assert code == 2 and "error" in err

    def test_small_length(self, capsys):
        code, out, _ = run(capsys, "spectrum", "9")
        assert code == 0 and "spectrum:" in out


class TestSubgroupsCommand:
    def test_87_order_7(self, capsys):
        code, out, _ = run(capsys, "subgroups", "87", "--order", "7")
        assert code == 0
        assert "{1, 7, 16, 25, 49, 52, 82}" in out

    def test_none_found(self, capsys):
        code, out, _ = run(capsys, "subgroups", "7", "--order", "4")
        assert code == 0 and "no subgroups" in out


class TestOrbitsCommand:
    def test_117_h1(self, capsys):
        code, out, _ = run(capsys, "orbits", "117", "--subgroup", "1,16,22")
        assert code == 0
        assert "{1, 16, 22}" in out
        assert "nonzero orbits: 2 of size 1, 38 of size 3" in out
        assert "size 3, elements = 0 (mod 3): 12 orbits" in out

    def test_15_orbits_that_mix_residues(self, capsys):
        code, out, _ = run(capsys, "orbits", "15", "--subgroup", "1,2,4,8")
        assert code == 0
        assert "size 4, elements = 0 (mod 3): 1 orbits" in out
        assert "size 4, elements = 0, 1, 2 (mod 3) 0, 2, 2 times: 2 orbits" in out


class TestAlg2Command:
    def test_117(self, capsys):
        code, out, _ = run(
            capsys, "alg2", "117", "--subgroup", "1,16,22", "--counts", "2,19",
            "--admissible",
        )
        assert code == 0
        assert "28, 64, 100, 172" in out
        assert "[(28, 208), (64, 172)]" in out

    def test_subgroup_with_an_element_2_mod_3(self, capsys):
        code, out, _ = run(capsys, "alg2", "21", "--subgroup", "1,8", "--counts", "5,3")
        assert code == 0 and out.splitlines()[1] == "16"


class TestDecodeCommand:
    def test_indices(self, capsys):
        indices = ",".join(str(i) for i in sorted(kp.PAIRS_117[0][0]))
        code, out, _ = run(
            capsys, "decode", "--l", "117", "--subgroup", "1,16,22",
            "--indices", indices,
        )
        assert code == 0
        assert "entry sum: 1" in out
        assert "PSD at lag 39: 64" in out

    def test_rank(self, capsys):
        code, out, _ = run(
            capsys, "decode", "--l", "133", "--subgroup", "1,11,121",
            "--rank", str(kp.RANKS_133[0][0]), "--composition", "22x3",
            "--polarity", "minus",
        )
        assert code == 0 and "entry sum: 1" in out

    def test_missing_arguments(self, capsys):
        code, _, err = run(capsys, "decode", "--l", "117", "--subgroup", "1,16,22")
        assert code == 2 and "error" in err

    def test_repeated_representative_exits_2(self, capsys):
        # 1, 1, 2, 3 covers 4 x 2 positions, but only three orbits
        code, out, err = run(capsys, "decode", "--l", "15", "--subgroup", "1,4", "--indices", "1,1,2,3")
        assert code == 2 and out == "" and "orbit representatives repeat in [1, 1, 2, 3]" in err


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-run")
    for comp, pol, name in (("7x1", "plus", "plus"), ("6x1", "minus", "minus")):
        assert main([
            "search", "--l", "13", "--subgroup", "1",
            "--composition", comp, "--polarity", pol,
            "--out", str(root / name),
        ]) == 0
    return root


class TestSearchMatchVerifyHadamard:
    def test_search_artifacts(self, run_dir, capsys):
        assert (run_dir / "plus" / "plan.json").exists()
        assert (run_dir / "plus" / "part-0000.rec").exists()

    def test_match_and_verify(self, run_dir, capsys, tmp_path):
        pairs_file = tmp_path / "pairs.json"
        code, out, _ = run(
            capsys, "match", "--l", "13",
            str(run_dir / "plus" / "part-0000.rec"),
            str(run_dir / "minus" / "part-0000.rec"),
            "--emit-pairs", str(pairs_file),
        )
        assert code == 0 and "verified pairs" in out
        records = json.loads(pairs_file.read_text())
        assert records
        code, out, _ = run(capsys, "verify", "--pairs", str(pairs_file))
        assert code == 0 and "VERIFIED" in out

    def test_hadamard(self, run_dir, capsys, tmp_path):
        pairs_file = tmp_path / "pairs.json"
        assert main([
            "match", "--l", "13",
            str(run_dir / "plus" / "part-0000.rec"),
            str(run_dir / "minus" / "part-0000.rec"),
            "--emit-pairs", str(pairs_file),
        ]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "matrices"
        code, out, _ = run(capsys, "hadamard", "--pairs", str(pairs_file), "--out", str(out_dir))
        assert code == 0
        matrices = list(out_dir.glob("hadamard-13-*.txt"))
        assert matrices
        grid = matrices[0].read_text().splitlines()
        assert len(grid) == 28 and set("".join(grid)) <= {"+", "-"}


class TestSearchFailures:
    @pytest.mark.parametrize(
        "args, message",
        [
            # a "plus" sequence of length 13 marks 7 positions, not 6
            (["--composition", "6x1"], "6x1"),
            (["--composition", "7x1", "--range", "0:1000"], "outside space [0, 792)"),
            (["--composition", "7x1", "--workers", "0"], "workers must be >= 1"),
            # 14 acts as 1 mod 13, but is not a residue
            (["--composition", "7x1", "--subgroup", "1,14"], "element 14 outside 1..12"),
            (["--l", "16", "--composition", "8x1"], "length must be an odd integer, got 16"),
        ],
        ids=[
            "wrong-coverage", "range-outside-space", "workers-0", "subgroup-element-outside-residues",
            "even-length",
        ],
    )
    def test_bad_plan_exits_2_before_plan_is_written(self, capsys, tmp_path, args, message):
        code, _, err = run(
            capsys, "search", "--l", "13", "--subgroup", "1", "--polarity", "plus",
            "--out", str(tmp_path / "out"), *args,
        )
        assert code == 2 and not (tmp_path / "out").exists()
        assert message in err


def plan_15(**fields) -> dict:
    """The plan.json of the l = 15, H = {1, 4} plan 4x2 plus, with ``fields`` replaced."""
    return {"length": 15, "subgroup": [1, 4], "composition": "4x2", "polarity": "plus", **fields}


class TestMatchFailures:
    def test_torn_record_exits_2(self, run_dir, capsys, tmp_path):
        # a record cut inside its second fingerprint still has three fields
        plan_dir = tmp_path / "torn"
        plan_dir.mkdir()
        (plan_dir / "plan.json").write_text((run_dir / "plus" / "plan.json").read_text())
        lines = (run_dir / "plus" / "part-0000.rec").read_text().splitlines(keepends=True)
        (plan_dir / "part-0000.rec").write_text("".join(lines[:-1]) + lines[-1][:-3])
        code, _, err = run(capsys, "match", "--l", "13", str(plan_dir / "part-0000.rec"))
        assert code == 2 and "malformed record" in err

    def test_misspelled_plan_polarity_exits_2(self, capsys, tmp_path):
        plan_dir = tmp_path / "plan"
        plan_dir.mkdir()
        (plan_dir / "plan.json").write_text(json.dumps({
            "length": 13, "subgroup": [1], "composition": "7x1", "polarity": "pluss",
        }))
        (plan_dir / "part-0000.rec").write_text("")
        code, _, err = run(capsys, "match", "--l", "13", str(plan_dir / "part-0000.rec"))
        assert code == 2 and "pluss" in err

    @pytest.mark.parametrize(
        "plan, message",
        [
            (plan_15(subgroup=5), "plan subgroup must be a list of integers, got 5"),
            (plan_15(subgroup=[1, 2]), "not closed under multiplication"),
            (plan_15(composition=5), "plan composition must be a string, got 5"),
            (plan_15(composition="6x2"), "composition 6x2 covers 12 positions, need 8"),
            (plan_15(composition="8x1"), "composition asks for 8 size-1 orbits, only 2 exist"),
            (plan_15(polarity=1), "plan polarity must be a string, got 1"),
            (plan_15(allowed_third_psd=5), "plan allowed_third_psd must be a list of integers, got 5"),
            (plan_15(rank_range=[0, "5"]), "plan rank_range must be a list of integers, got [0, '5']"),
            (plan_15(rank_range=[0, 16]), "rank range [0, 16) outside space [0, 15)"),
            (plan_15(length="15"), "length must be an odd integer, got '15'"),
            (plan_15(length=16), "length must be an odd integer, got 16"),
            (
                plan_15(length=13, subgroup=[1], composition="7x1", allowed_third_psd=[4]),
                "allowed_third_psd requires a length divisible by 3",
            ),
            ([plan_15()], "a plan must be a JSON object"),
        ],
        ids=[
            "subgroup-not-list", "subgroup-not-closed", "composition-not-string", "wrong-coverage",
            "composition-too-large", "polarity-not-string", "allowed-not-list", "range-not-ints",
            "range-outside-space", "length-not-int", "length-even", "allowed-without-3-dividing-l",
            "top-level-list",
        ],
    )
    def test_malformed_plan_exits_2(self, capsys, tmp_path, plan, message):
        plan_dir = tmp_path / "plan"
        plan_dir.mkdir()
        (plan_dir / "plan.json").write_text(json.dumps(plan))
        (plan_dir / "part-0000.rec").write_text("")
        code, out, err = run(capsys, "match", "--l", "15", str(plan_dir / "part-0000.rec"))
        assert code == 2 and out == "" and err.startswith("error: ") and message in err


class TestVerifyFailures:
    def test_bad_pair_exits_3(self, capsys, tmp_path):
        rec = {
            "l": 117,
            "subgroup": list(kp.SUBGROUP_117),
            "I_A": sorted(kp.PAIRS_117[0][0]),
            "I_B": sorted(kp.PAIRS_117[1][1]),  # mismatched sides
            "polarity_a": "plus",
            "polarity_b": "plus",
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([rec]))
        code, out, _ = run(capsys, "verify", "--pairs", str(path))
        assert code == 3 and "FAILED" in out

    def test_missing_file_exits_4(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--pairs", str(tmp_path / "nope.json"))
        assert code == 4 and "I/O error" in err

    @pytest.mark.parametrize("command", ["verify", "hadamard"])
    @pytest.mark.parametrize(
        "content, message",
        [
            ({"a": 1}, "expected a list of pair records"),
            ([1], "pair 0 is not an object"),
            ([{"l": 15, "subgroup": [1, 4], "I_A": [1, 2, 3, 6], "I_B": 5}], "I_B must be a list of integers"),
            ([{"l": 15, "subgroup": [1, 4], "I_A": [1, "3"], "I_B": [1]}], "I_A must be a list of integers"),
            (
                [{"l": 15, "subgroup": [1, 4], "I_A": [1, 1, 2, 3], "I_B": [1, 2, 3, 6]}],
                "orbit representatives repeat in [1, 1, 2, 3]",
            ),
        ],
        ids=[
            "top-level-object", "element-not-object", "indices-not-list", "indices-not-ints",
            "repeated-representative",
        ],
    )
    def test_malformed_pairs_file_exits_2(self, capsys, tmp_path, command, content, message):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(content))
        extra = ["--out", str(tmp_path / "h")] if command == "hadamard" else []
        code, out, err = run(capsys, command, "--pairs", str(path), *extra)
        assert code == 2 and message in err and out == ""

    def test_pairs_without_polarity_read_as_plus(self, capsys, tmp_path):
        rec = {"l": 117, "subgroup": list(kp.SUBGROUP_117), "I_A": sorted(kp.PAIRS_117[0][0]),
               "I_B": sorted(kp.PAIRS_117[0][1])}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps([rec]))
        code, out, _ = run(capsys, "verify", "--pairs", str(path))
        assert code == 0 and out == "pair 0: VERIFIED psd_third=(64, 172)\n"

    def test_length_flag_is_rejected(self, capsys, tmp_path):
        # each pair record carries its own l; verify takes no --l
        path = tmp_path / "pairs.json"
        path.write_text("[]")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--l", "15", "--pairs", str(path)])
        assert exc.value.code == 2 and "--l" in capsys.readouterr().err


class TestPipelineCommand:
    def test_small_end_to_end(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "pipeline", "--l", "11", "--subgroup", "1",
            "--out", str(tmp_path / "run"),
        )
        assert code == 0 and "verified pairs" in out
        assert (tmp_path / "run" / "pairs.json").exists()

    def test_match_counts_equal_match_run(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        assert main([
            "pipeline", "--l", "11", "--subgroup", "1", "--out", str(run_dir), "--workers", "2",
        ]) == 0
        capsys.readouterr()
        code, out, _ = run(
            capsys, "match", "--l", "11", *map(str, run_dir.glob("*/part-*.rec")),
        )
        matches = match_candidates(load_record_sets(run_dir.glob("*/part-*.rec")))
        pairs = [m.pair for m in matches if m.verified]
        false_candidates = sum(1 for m in matches if not m.verified)
        assert code == 0
        assert out.splitlines()[0] == (
            f"{len(matches)} fingerprint matches; {len(pairs)} verified pairs; "
            f"{false_candidates} false candidates dropped"
        )

    def test_composition_fitting_no_polarity_exits_2(self, capsys, tmp_path):
        # at l = 13 a plus sequence marks 7 positions and a minus one 6, not 5
        code, out, err = run(
            capsys, "pipeline", "--l", "13", "--subgroup", "1", "--compositions", "7x1;5x1",
            "--out", str(tmp_path / "run"),
        )
        assert code == 2 and out == "" and not (tmp_path / "run").exists()
        assert "composition 5x1 covers 5 positions, need 7 or 6" in err

    def test_plan_files_with_eps_still_load(self, capsys, tmp_path):
        # plan.json files of earlier versions carry the PSD tolerance as "eps"
        run_dir = tmp_path / "run"
        assert main(["pipeline", "--l", "15", "--subgroup", "1,4", "--out", str(run_dir)]) == 0
        capsys.readouterr()
        for path in run_dir.glob("*/plan.json"):
            plan = json.loads(path.read_text())
            assert "eps" not in plan
            path.write_text(json.dumps({**plan, "eps": 1e-06}, indent=2) + "\n")
        code, out, _ = run(capsys, "match", "--l", "15", *map(str, run_dir.glob("*/part-*.rec")))
        assert code == 0 and "21 fingerprint matches; 21 verified pairs" in out


def snapshot(root: Path) -> dict:
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestRerun:
    @pytest.mark.parametrize(
        "first, second",
        [
            (["search", "--composition", "4x2"], ["search", "--composition", "2x1+3x2"]),
            (["search", "--composition", "4x2"], ["search", "--composition", "4x2", "--range", "0:10"]),
            (["pipeline"], ["pipeline", "--subgroup", "1"]),
        ],
        ids=["another-composition", "another-range", "pipeline-another-subgroup"],
    )
    def test_another_plan_exits_2_and_writes_nothing(self, capsys, tmp_path, first, second):
        # the records and checkpoints of the first plan are no records of the second
        out = tmp_path / "out"
        common = ["--l", "15", "--subgroup", "1,4", "--out", str(out)]
        assert main([first[0], *common, *first[1:]]) == 0
        capsys.readouterr()
        before = snapshot(out)
        code, stdout, err = run(capsys, second[0], *common, *second[1:])
        assert code == 2 and stdout == "" and "holds the records of another plan" in err
        assert snapshot(out) == before

    def test_pipeline_rerun_joins_only_its_own_plans(self, capsys, tmp_path):
        assert main(["pipeline", "--l", "15", "--subgroup", "1", "--out", str(tmp_path / "r")]) == 0
        assert main(["pipeline", "--l", "15", "--subgroup", "1", "--polarity", "plus",
                     "--out", str(tmp_path / "fresh")]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "pipeline", "--l", "15", "--subgroup", "1", "--polarity", "plus",
                           "--out", str(tmp_path / "r"))
        assert code == 0 and "4221 verified pairs" in out
        assert (tmp_path / "r" / "pairs.json").read_bytes() == (tmp_path / "fresh" / "pairs.json").read_bytes()

    @pytest.mark.parametrize("first, second", [(1, 2), (3, 1)])
    def test_search_rerun_with_other_workers_keeps_the_parts(self, capsys, tmp_path, first, second):
        # the directory keeps the split of its first run; --workers sets only the pool size
        def search(out: Path, workers: int) -> str:
            code, stdout, _ = run(capsys, "search", "--l", "15", "--subgroup", "1", "--composition", "8x1",
                                  "--out", str(out), "--workers", str(workers))
            assert code == 0
            return stdout

        search(tmp_path / "fresh", 1)
        search(tmp_path / "out", first)
        assert search(tmp_path / "out", second).startswith("scanned 0 ranks;")
        parts = sorted((tmp_path / "out").glob("part-*.rec"))
        joined = b"".join(path.read_bytes() for path in parts)
        assert len(parts) == first
        assert joined == (tmp_path / "fresh" / "part-0000.rec").read_bytes()
        lines = joined.splitlines()
        assert len(lines) == len(set(lines)) == 686

    def test_pipeline_rerun_with_other_workers_scans_nothing(self, capsys, tmp_path):
        argv = ["pipeline", "--l", "15", "--subgroup", "1,4", "--out", str(tmp_path / "r")]
        code, first, _ = run(capsys, *argv)
        pairs = (tmp_path / "r" / "pairs.json").read_bytes()
        code_again, again, _ = run(capsys, *argv, "--workers", "2")
        assert code == code_again == 0 and "75 ranks scanned" in first
        assert again == first.replace("75 ranks scanned", "0 ranks scanned")
        assert (tmp_path / "r" / "pairs.json").read_bytes() == pairs


def test_lp_eps_in_the_environment_is_ignored(tmp_path):
    # the float tolerance is a constant: a negative one would reject every pair
    env = dict(os.environ, LP_EPS="-1")
    src = str(Path(legendre_pairs.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "legendre_pairs.cli", "pipeline", "--l", "15", "--subgroup", "1,4",
         "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "21 verified pairs; 0 false candidates" in done.stdout


class TestOracleCommand:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "oracle", "--l", "9")
        assert code == 0 and "486 normalized Legendre pairs of length 9" in out

    def test_with_subgroup(self, capsys):
        code, out, _ = run(capsys, "oracle", "--l", "15", "--subgroup", "1,4")
        assert code == 0 and "21 normalized Legendre pairs" in out

    def test_no_orbit_closed_sequences(self, capsys):
        # the orbit sizes under this subgroup are 1, 1, 1, 6, 6, 6: none sum to 11
        code, out, _ = run(capsys, "oracle", "--l", "21", "--subgroup", "1,4,10,13,16,19")
        assert code == 0 and "0 normalized Legendre pairs of length 21" in out
