import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ncglab import cli, config, fileio
from ncglab.cli import main
from ncglab.config import CHUNK_ENTRIES


@pytest.fixture(autouse=True)
def run_in_tmpdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def file_sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def gen_args(out="inst.json", planted="planted.json", seed=7, extra=()):
    return ["gen-labelcover", "--vertices", "8", "--degree", "3", "--n", "6",
            "--k", "3", "--t", "2", "--seed", str(seed), "--out", out,
            "--planted-out", planted, *extra]


class TestParser:
    def test_built_once_across_calls(self):
        cli.build_parser.cache_clear()
        main(gen_args())
        main(["check-instance", "--instance", "inst.json"])
        assert cli.build_parser.cache_info().misses == 1

    def test_parsed_defaults_are_not_shared(self):
        argv = ["check-instance", "--instance", "inst.json"]
        first = cli.build_parser().parse_args(argv)
        first.deltas.append(0.75)
        second = cli.build_parser().parse_args(argv)
        assert second.deltas == [0.25, 0.5]
        assert second.deltas is not first.deltas


class TestGenLabelcover:
    def test_generates_and_passes(self, tmp_path):
        assert main(gen_args()) == 0
        report = json.loads((tmp_path / "gen-labelcover.report.json").read_text())
        assert report["pass"] is True
        inst = fileio.load_instance(tmp_path / "inst.json")
        planted = fileio.load_assignment(tmp_path / "planted.json")
        assert inst.num_vertices == 8
        assert planted.shape == (8,)

    def test_same_seed_byte_identical(self, tmp_path):
        main(gen_args(out="a.json", planted="pa.json"))
        main(gen_args(out="b.json", planted="pb.json"))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "pa.json").read_bytes() == (tmp_path / "pb.json").read_bytes()

    def test_zero_t_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["gen-labelcover", "--vertices", "8", "--degree", "3", "--n", "6",
                  "--k", "3", "--t", "0", "--seed", "1", "--out", "x.json"])
        assert err.value.code == 2

    def test_zeta_is_usage_error(self, tmp_path):
        # an instance declares no zeta, so the generator takes no such flag
        with pytest.raises(SystemExit) as err:
            main(gen_args(extra=("--zeta", "0.1")))
        assert err.value.code == 2
        assert not (tmp_path / "inst.json").exists()

    def test_infeasible_params_fail_with_report(self, tmp_path):
        code = main(["gen-labelcover", "--vertices", "8", "--degree", "3", "--n", "6",
                     "--k", "2", "--t", "2", "--seed", "1", "--out", "x.json"])
        assert code == 1
        report = json.loads((tmp_path / "gen-labelcover.report.json").read_text())
        assert report["pass"] is False
        assert report["error"] == "need k*t >= n so projections with preimage bound t exist"
        assert not (tmp_path / "x.json").exists()

    def test_random_mode_refuses_planted_out(self, tmp_path):
        # a random instance has no planted assignment to write
        assert main(gen_args(extra=("--mode", "random"))) == 1
        report = json.loads((tmp_path / "gen-labelcover.report.json").read_text())
        assert report["pass"] is False and "--planted-out" in report["error"]
        assert not (tmp_path / "inst.json").exists()
        assert not (tmp_path / "planted.json").exists()

    def test_instance_roundtrip_byte_identical(self, tmp_path):
        main(gen_args())
        inst = fileio.load_instance(tmp_path / "inst.json")
        fileio.save_instance(inst, tmp_path / "copy.json")
        assert (tmp_path / "inst.json").read_bytes() == (tmp_path / "copy.json").read_bytes()

    # Instance and planted files, pinned so that a change of the generator or
    # of the instance's array form cannot change the draws or the file format.
    @pytest.mark.parametrize("argv,digests", [
        (["--vertices", "12", "--degree", "4", "--n", "6", "--k", "3", "--t", "2",
          "--seed", "7", "--planted-out", "planted.json"],
         {"inst.json": "87bfcf7d9a3f179f90e408e775f9ab54032d028e04067f84ff9f469bc77ed29f",
          "planted.json": "e99509b44fb84dabc4e06062eac1f72569ef9526a5122a592622932530b15019",
          "gen-labelcover.report.json":
              "a31e8193eb7b95e3e2a6c2146ea3a5dab9febc43f0908eb754fdd925370d5b94"}),
        (["--vertices", "12", "--degree", "4", "--n", "6", "--k", "3", "--t", "2",
          "--seed", "7", "--mode", "random"],
         {"inst.json": "c21601e2da5fafd055266c84942acb2927d797c9fa25a565fd9a84ffd1332637",
          "gen-labelcover.report.json":
              "fb2f7a239ce81ccc70524307e7f1d0effe2e50f028a602e87913d30b044a884e"}),
        (["--vertices", "300", "--degree", "4", "--n", "8", "--k", "4", "--t", "2",
          "--seed", "1"],
         {"inst.json": "5a58e64bd28b7f8056df871353fff993bf85228584353444cda7bc4971db6cae",
          "gen-labelcover.report.json":
              "be945e0a125224b86099195cd67e5b1bcdd661c0efe1e8759203b43ac0e73082"}),
    ])
    def test_output_files_golden_sha256(self, tmp_path, argv, digests):
        assert main(["gen-labelcover", *argv, "--out", "inst.json"]) == 0
        for name, sha256 in digests.items():
            assert file_sha256(tmp_path / name) == sha256


class TestCheckInstance:
    def test_planted_instance_passes(self, tmp_path, capsys):
        main(gen_args())
        capsys.readouterr()
        code = main(["check-instance", "--instance", "inst.json",
                     "--assignment", "planted.json", "--deltas", "0.75,1.0"])
        assert code == 0
        report = json.loads((tmp_path / "check-instance.report.json").read_text())
        assert report["satisfied_fraction"] == 1.0
        assert report["checks"]["smoothness_ok"] is True
        assert file_sha256(tmp_path / "check-instance.report.json") == \
            "5832ae0244f1e018ceff640594fa24498dd260ad2139b8c777f1f664af05bd8d"
        assert capsys.readouterr().out == "".join(f"  {name}: PASS\n" for name in (
            "regular", "connected", "preimage_bound", "smoothness_ok",
            "weak_expansion")) + "PASS\n"

    def test_params_record_assignment(self, tmp_path):
        main(gen_args())
        assert main(["check-instance", "--instance", "inst.json",
                     "--assignment", "planted.json", "--deltas", "0.75,1.0"]) == 0
        report = json.loads((tmp_path / "check-instance.report.json").read_text())
        assert report["params"]["assignment"] == "planted.json"

    @pytest.mark.parametrize("deltas", ["0.001", "5", ","])
    def test_unusable_delta_grid_fails(self, tmp_path, deltas):
        # at |V| = 40 the subset sizes of deltas 0.001 and 5 are 0 and 200
        main(["gen-labelcover", "--vertices", "40", "--degree", "4", "--n", "6", "--k", "3",
              "--t", "2", "--seed", "1", "--out", "inst.json"])
        code = main(["check-instance", "--instance", "inst.json", "--deltas", deltas])
        assert code == 1
        report = json.loads((tmp_path / "check-instance.report.json").read_text())
        assert report["pass"] is False and "weak-expansion" in report["error"]

    # a non-finite delta, or one whose subset size delta * |V| overflows,
    # has no subset size; each is refused by name instead of a traceback
    @pytest.mark.parametrize("deltas, error", [
        ("inf", "delta inf gives subset size inf"),
        ("nan", "delta nan gives subset size nan"),
        ("0.5,-inf", "delta -inf gives subset size -inf"),
        ("1e308", "delta 1e+308 gives subset size inf")])
    def test_non_finite_delta_fails_with_report(self, tmp_path, deltas, error):
        main(gen_args())
        code = main(["check-instance", "--instance", "inst.json", "--deltas", deltas])
        assert code == 1
        report = json.loads((tmp_path / "check-instance.report.json").read_text())
        assert report["pass"] is False
        assert report["error"] == f"weak-expansion {error} outside [1, 8]"

    def test_zero_subset_samples_is_usage_error(self, tmp_path):
        main(gen_args())
        with pytest.raises(SystemExit) as err:
            main(["check-instance", "--instance", "inst.json", "--subset-samples", "0"])
        assert err.value.code == 2
        assert not (tmp_path / "check-instance.report.json").exists()


class TestReduce:
    @pytest.mark.parametrize("backend", ["clifford", "comm_real", "comm_complex"])
    def test_planted_pair_passes(self, tmp_path, backend):
        main(gen_args())
        code = main(["reduce", "--instance", "inst.json", "--assignment", "planted.json",
                     "--backend", backend])
        assert code == 0
        report = json.loads((tmp_path / "reduce.report.json").read_text())
        assert report["value"] == pytest.approx(1.0, abs=1e-6)

    def test_corrupted_assignment_fails(self, tmp_path):
        main(gen_args())
        planted = fileio.load_assignment(tmp_path / "planted.json")
        planted[0] = (planted[0] + 1) % 6
        fileio.save_assignment(planted, tmp_path / "broken.json")
        code = main(["reduce", "--instance", "inst.json", "--assignment", "broken.json",
                     "--backend", "comm_real"])
        assert code == 1
        report = json.loads((tmp_path / "reduce.report.json").read_text())
        assert report["in_subspace"] is False


    @pytest.mark.parametrize("mode", ["exhaustive", "pairwise_independent"])
    @pytest.mark.parametrize("backend", ["clifford", "comm_real"])
    def test_samples_outside_monte_carlo_refused(self, tmp_path, monkeypatch, backend, mode):
        from ncglab import reduction
        main(gen_args())
        # refused before any kernel is built: calling None would raise a TypeError
        monkeypatch.setitem(reduction.BACKEND_BUILDERS, backend, None)
        assert main(["reduce", "--instance", "inst.json", "--assignment", "planted.json",
                     "--backend", backend, "--mode", mode, "--samples", "5"]) == 1
        report = json.loads((tmp_path / "reduce.report.json").read_text())
        assert report["pass"] is False and "--samples" in report["error"]

    @pytest.mark.parametrize("mode", ["exhaustive", "pairwise_independent"])
    @pytest.mark.parametrize("backend", ["clifford", "comm_real"])
    def test_seed_outside_monte_carlo_refused(self, tmp_path, monkeypatch, backend, mode):
        # an exact family draws nothing, so a seed there would be recorded and unused
        from ncglab import reduction
        main(gen_args())
        monkeypatch.setitem(reduction.BACKEND_BUILDERS, backend, None)
        assert main(["reduce", "--instance", "inst.json", "--assignment", "planted.json",
                     "--backend", backend, "--mode", mode, "--seed", "0"]) == 1
        report = json.loads((tmp_path / "reduce.report.json").read_text())
        assert report["pass"] is False
        assert report["error"] == f"--seed applies only to --mode monte_carlo, not {mode}"

    @pytest.mark.parametrize("extra", [["--samples", "2000"], ["--seed", "3"], []],
                             ids=["samples", "seed", "bare"])
    def test_monte_carlo_needs_samples_and_seed(self, tmp_path, monkeypatch, extra):
        from ncglab import reduction
        main(gen_args())
        monkeypatch.setitem(reduction.BACKEND_BUILDERS, "comm_real", None)
        assert main(["reduce", "--instance", "inst.json", "--assignment", "planted.json",
                     "--backend", "comm_real", "--mode", "monte_carlo", *extra]) == 1
        report = json.loads((tmp_path / "reduce.report.json").read_text())
        assert report["pass"] is False
        assert report["error"] == "--mode monte_carlo needs --samples and --seed"

    def test_exact_modes_record_no_seed(self, tmp_path):
        main(gen_args())
        assert main(["reduce", "--instance", "inst.json", "--assignment", "planted.json",
                     "--backend", "clifford"]) == 0
        report = json.loads((tmp_path / "reduce.report.json").read_text())
        assert report["params"]["seed"] is None and report["params"]["samples"] is None

    def test_params_record_samples(self, tmp_path):
        main(gen_args())
        argv = ["reduce", "--instance", "inst.json", "--assignment", "planted.json",
                "--backend", "comm_real", "--mode", "monte_carlo", "--seed", "3"]
        for samples in (2000, 4000):
            assert main([*argv, "--samples", str(samples), "--report", f"{samples}.json"]) == 0
            report = json.loads((tmp_path / f"{samples}.json").read_text())
            assert report["params"]["samples"] == samples

    @pytest.mark.parametrize("samples", [[], ["--samples", "5"],
                                         ["--samples", "5", "--seed", "1"]],
                             ids=["bare", "samples", "samples-seed"])
    def test_clifford_monte_carlo_refused(self, tmp_path, capsys, samples):
        # the Clifford phase families are exact: no mode of theirs draws samples
        main(gen_args())
        assert main(["reduce", "--instance", "inst.json", "--assignment", "planted.json",
                     "--backend", "clifford", "--mode", "monte_carlo", *samples]) == 1
        report = json.loads((tmp_path / "reduce.report.json").read_text())
        assert report["pass"] is False and "params" not in report
        assert ("samples" if samples else "monte_carlo") in report["error"]
        assert "Traceback" not in capsys.readouterr().err


class TestDecode:
    def test_planted_field_recovers(self, tmp_path):
        main(gen_args())
        inst = fileio.load_instance(tmp_path / "inst.json")
        planted = fileio.load_assignment(tmp_path / "planted.json")
        from ncglab.reduction import assignment_to_field
        fileio.save_field(assignment_to_field(inst, planted), tmp_path / "field.json")
        code = main(["decode", "--instance", "inst.json", "--field", "field.json",
                     "--eps", "0.3", "--seed", "5", "--assignment-out", "dec.json"])
        assert code == 0
        report = json.loads((tmp_path / "decode.report.json").read_text())
        assert report["stats"]["satisfied_fraction"] == 1.0
        decoded = fileio.load_assignment(tmp_path / "dec.json")
        np.testing.assert_array_equal(decoded, planted)

    def test_zero_field_trivial(self, tmp_path):
        main(gen_args())
        fileio.save_field(np.zeros((8, 6), dtype=complex), tmp_path / "zero.json")
        code = main(["decode", "--instance", "inst.json", "--field", "zero.json",
                     "--eps", "0.3", "--seed", "5"])
        assert code == 0
        report = json.loads((tmp_path / "decode.report.json").read_text())
        assert report["stats"]["v0_size"] == 0

    def test_same_seed_identical_assignment(self, tmp_path):
        main(gen_args())
        inst = fileio.load_instance(tmp_path / "inst.json")
        rng = np.random.default_rng(0)
        fld = rng.normal(size=(8, 6)) + 1j * rng.normal(size=(8, 6))
        fld /= np.sqrt(np.mean(np.sum(np.abs(fld)**2, axis=1)))
        fileio.save_field(fld, tmp_path / "field.json")
        args = ["decode", "--instance", "inst.json", "--field", "field.json",
                "--eps", "0.4", "--seed", "9"]
        main(args + ["--assignment-out", "d1.json"])
        main(args + ["--assignment-out", "d2.json"])
        assert (tmp_path / "d1.json").read_bytes() == (tmp_path / "d2.json").read_bytes()


# stdout of an embed-verify run whose checks all pass
EMBED_VERIFY_PASS = "".join(f"  {name}: PASS\n" for name in (
    "generator_suite", "formula_vs_svd", "basis_norm_one", "norm_bound",
    "second_moment")) + "PASS\n"


class TestEmbedVerify:
    # The report's rows carry each check's worst error, so these pins hold
    # the checks' draws and arithmetic as well as the file format.
    def test_exhaustive_n4_passes(self, tmp_path, capsys):
        code = main(["embed-verify", "--n", "4", "--seed", "3", "--trials", "50",
                     "--csv", "embed.csv"])
        assert code == 0
        lines = (tmp_path / "embed.csv").read_text().strip().splitlines()
        assert lines[0].startswith("check,")
        assert len(lines) >= 5
        assert file_sha256(tmp_path / "embed.csv") == \
            "2b9a71a57b4e052decb44fa7dc7e6a1bc13eaf6f4d083618b171aa69972416eb"
        assert file_sha256(tmp_path / "embed-verify.report.json") == \
            "b41364f0e8a6e7f43ebe30451f359ddadde74570a2eecb66babc905b44bac9f1"
        assert capsys.readouterr().out == EMBED_VERIFY_PASS

    @pytest.mark.parametrize("corrupt", [
        lambda gens: gens.phases[0].__setitem__(0, -gens.phases[0, 0]),  # C_1^2 != I
        lambda gens: gens.phases[3].__setitem__(1, 1j * gens.phases[3, 1]),  # not Hermitian
        lambda gens: gens.masks.__setitem__(2, gens.masks[0]),  # C_3 = Z x X on C_1's column
        lambda gens: gens.masks.__setitem__(0, 0),  # C_1 = I: trace 4, commutes with C_2
        # C_3 = I x X without its Z string: Hermitian, unitary and traceless, but
        # it commutes with C_1 = X x I
        lambda gens: gens.phases.__setitem__(2, gens.phases[0]),
    ], ids=["phase-sign", "phase-unit", "mask-pair", "mask-zero", "commuting"])
    def test_corrupted_generators_fail_the_suite(self, tmp_path, monkeypatch, capsys, corrupt):
        make = cli.clifford.make_generators

        def corrupted(n):
            gens = make(n)
            corrupt(gens)
            return gens

        monkeypatch.setattr(cli.clifford, "make_generators", corrupted)
        assert main(["embed-verify", "--n", "4", "--seed", "3", "--trials", "5"]) == 1
        report = json.loads((tmp_path / "embed-verify.report.json").read_text())
        assert report["pass"] is False
        assert report["rows"][0][0] == "generator_suite" and report["rows"][0][5] == "False"
        assert capsys.readouterr().out.startswith("  generator_suite: FAIL\n")

    def test_trials_over_the_chunk_budget_refused(self, tmp_path, monkeypatch, capsys):
        # each check draws a (trials, 2, n) normal array: 2 x 50 x 4 = 400 entries
        monkeypatch.setattr(config, "CHUNK_ENTRIES", 400)
        assert main(["embed-verify", "--n", "4", "--seed", "3", "--trials", "50"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(config, "CHUNK_ENTRIES", 399)
        # refused before any generator or draw: calling None would raise a TypeError
        monkeypatch.setattr(np.random, "default_rng", None)
        monkeypatch.setattr(cli.clifford, "make_generators", None)
        assert main(["embed-verify", "--n", "4", "--seed", "3", "--trials", "50"]) == 1
        report = json.loads((tmp_path / "embed-verify.report.json").read_text())
        assert report["pass"] is False
        assert report["error"] == ("embed-verify draw 2 x 50 trials x n=4 exceeds cap "
                                   "CHUNK_ENTRIES 399")
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--mode", "monte_carlo"], ["--samples", "10"]])
    def test_sampled_family_is_usage_error(self, extra):
        with pytest.raises(SystemExit) as err:
            main(["embed-verify", "--n", "4", "--seed", "3", *extra])
        assert err.value.code == 2

    def test_help_offers_only_exact_families(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["embed-verify", "--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert "{exhaustive,pairwise_independent}" in out
        assert "--samples" not in out and "monte_carlo" not in out

    @pytest.mark.parametrize("argv, error", [
        (["--n", "17"], "exhaustive family rows 2^16 x n=17 exceed cap 1048576"),
        (["--n", "16", "--trials", "200000"],
         "embed-verify draw 2 x 200000 trials x n=16 exceeds cap CHUNK_ENTRIES 4194304"),
    ], ids=["family", "trials"])
    def test_refused_before_the_generators(self, tmp_path, capsys, argv, error):
        # the sixteen or more dense generators at n >= 16 take at least 16 MiB
        tracemalloc.start()
        try:
            code = main(["embed-verify", "--seed", "3", *argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        report = json.loads((tmp_path / "embed-verify.report.json").read_text())
        assert report["pass"] is False and report["error"] == error
        assert "Traceback" not in capsys.readouterr().err
        assert peak < 2**20

    def test_pairwise_mode(self, tmp_path, capsys):
        assert main(["embed-verify", "--n", "6", "--mode", "pairwise_independent",
                     "--seed", "3", "--trials", "30"]) == 0
        assert file_sha256(tmp_path / "embed-verify.report.json") == \
            "cfa219b97280dfa41b787509ac88f2a8e901e699460eea600446f92b56e33da3"
        assert capsys.readouterr().out == EMBED_VERIFY_PASS

    def test_single_coordinate_degenerate_pass(self, tmp_path, capsys):
        assert main(["embed-verify", "--n", "1", "--seed", "3", "--trials", "20"]) == 0
        assert file_sha256(tmp_path / "embed-verify.report.json") == \
            "48d1afe16645bb7c4355a82f0db76ac177dab5e7fae89a8337919667bb222ecf"
        assert capsys.readouterr().out == EMBED_VERIFY_PASS


class TestCommVerify:
    def test_real_exhaustive_rows(self, tmp_path):
        code = main(["comm-verify", "--field", "real", "--n-list", "1,2,4",
                     "--seed", "1", "--csv", "comm.csv"])
        assert code == 0
        report = json.loads((tmp_path / "comm-verify.report.json").read_text())
        values = {row["n"]: row["value"] for row in report["rows"]}
        assert values[2] == pytest.approx(2**-0.5, abs=1e-12)
        assert file_sha256(tmp_path / "comm.csv") == \
            "f5b1096ad659e14ab73d18ca78baf09d002b04427b424413dc091a502a1dcf92"
        assert file_sha256(tmp_path / "comm-verify.report.json") == \
            "4cf625e98ecc82b17f4af704462709efdaefb4992b1d43221d9e75b2bf9e252f"

    def test_complex_value(self, tmp_path):
        code = main(["comm-verify", "--field", "complex", "--n-list", "1,2",
                     "--seed", "1"])
        assert code == 0
        report = json.loads((tmp_path / "comm-verify.report.json").read_text())
        values = {row["n"]: row["value"] for row in report["rows"]}
        assert values[2] == pytest.approx((1 + np.sqrt(2)) / (2 * np.sqrt(2)), abs=1e-12)
        assert file_sha256(tmp_path / "comm-verify.report.json") == \
            "559416c49345c4c76fb7d326fc460c7ccb7b5b9b0ffb94785934bf4d1716ae50"

    # a row past the enumeration cap needs --samples; n = 10^11 is refused
    # before 2^n or 4^n is formed
    @pytest.mark.parametrize("fld", ["real", "complex"])
    def test_huge_n_fails_with_report(self, tmp_path, fld):
        code = main(["comm-verify", "--field", fld, "--n-list", "100000000000",
                     "--seed", "1"])
        assert code == 1
        report = json.loads((tmp_path / "comm-verify.report.json").read_text())
        assert report["pass"] is False
        assert report["error"] == "Monte-Carlo profile rows require sample_count"

    def test_row_over_byte_table_cap_fails_with_report(self, tmp_path):
        # one complex row at n = 65536 would take 64 MiB of byte tables
        tracemalloc.start()
        try:
            code = main(["comm-verify", "--field", "complex", "--n-list", "65536",
                         "--samples", "10", "--seed", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        report = json.loads((tmp_path / "comm-verify.report.json").read_text())
        assert report["pass"] is False and "over TABLE_CAP 4194304" in report["error"]
        assert peak < 2**22

    @pytest.mark.parametrize("fld", ["real", "complex"])
    def test_row_over_byte_table_cap_refused_before_the_row_exists(self, tmp_path, fld):
        # the (n,) row alone would take 7.6 MiB at n = 10^6
        tracemalloc.start()
        try:
            code = main(["comm-verify", "--field", fld, "--n-list", "1000000",
                         "--samples", "10", "--seed", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        report = json.loads((tmp_path / "comm-verify.report.json").read_text())
        assert report["pass"] is False and "over TABLE_CAP 4194304" in report["error"]
        assert peak < 2**20


class TestLiftAndSolve:
    def test_lift_solve_pipeline(self, tmp_path):
        assert main(["lift", "--backend", "comm_real", "--n", "2",
                     "--out", "tensor.json"]) == 0
        tensor = fileio.load_tensor(tmp_path / "tensor.json")
        assert tensor.d == 4
        code = main(["solve-ncg", "--tensor", "tensor.json", "--restarts", "8",
                     "--seed", "2", "--out", "solution.json"])
        assert code == 0
        report = json.loads((tmp_path / "solve-ncg.report.json").read_text())
        assert report["value"] == pytest.approx(1.0, abs=1e-6)
        assert report["monotone"] is True
        solution = json.loads((tmp_path / "solution.json").read_text())
        assert len(solution["a"]) == 4
        assert file_sha256(tmp_path / "solve-ncg.report.json") == \
            "dc79a5c95ec2f81ef6d93d21dfa5a5dca7f6d4bda1bf9774f01bdd8770067a6d"
        assert file_sha256(tmp_path / "solution.json") == \
            "0e5393edaf1ec8da8f7749134ba03ae2b6d1c7d3a735b99b13725b6ca1be63cf"

    def test_clifford_solve_golden_sha256(self, tmp_path):
        # Clifford images have 2 x 2 blocks, so every polar step takes a
        # batched SVD; test_solvers checks this case against the dense solve.
        assert main(["lift", "--backend", "clifford", "--n", "2", "--out", "tensor.json"]) == 0
        assert main(["solve-ncg", "--tensor", "tensor.json", "--restarts", "4",
                     "--seed", "1", "--out", "solution.json"]) == 0
        assert file_sha256(tmp_path / "solve-ncg.report.json") == \
            "cfd890b2a813f70f26ff5ab3d00ea90a291c95e0c526aa67260818d4ab751461"
        assert file_sha256(tmp_path / "solution.json") == \
            "d4524bd38b521d65cff248212b6413e489ff1d191fa6e60987f6a24616cbbe09"

    def test_clifford_lift_sides(self, tmp_path):
        # one block per parity class: d = 2^(n-1) classes x generator side 2^ceil(n/2)
        assert main(["lift", "--backend", "clifford", "--n", "4", "--out", "t4.json"]) == 0
        report = json.loads((tmp_path / "lift.report.json").read_text())
        assert report["d"] == fileio.load_tensor(tmp_path / "t4.json").d == 32
        assert main(["lift", "--backend", "clifford", "--n", "7", "--out", "t7.json"]) == 1
        report = json.loads((tmp_path / "lift.report.json").read_text())
        assert report["pass"] is False
        assert report["error"] == "clifford image side d = 1024 at n=7 exceeds cap 512"
        assert not (tmp_path / "t7.json").exists()

    def test_tensor_roundtrip_byte_identical(self, tmp_path):
        main(["lift", "--backend", "comm_complex", "--n", "1", "--out", "t.json"])
        tensor = fileio.load_tensor(tmp_path / "t.json")
        fileio.save_tensor(tensor, tmp_path / "t2.json")
        assert (tmp_path / "t.json").read_bytes() == (tmp_path / "t2.json").read_bytes()

    def test_malformed_tensor_entry(self, tmp_path):
        (tmp_path / "bad.json").write_text(
            '{"version": 1, "d": 2, "entries": [[1, 1, 1, 1, 0.5]]}\n')
        code = main(["solve-ncg", "--tensor", "bad.json", "--seed", "0"])
        assert code == 1
        report = json.loads((tmp_path / "solve-ncg.report.json").read_text())
        assert report["pass"] is False and "error" in report

    # Tensor files written by lift, pinned so a change of the in-memory tensor
    # representation cannot change the on-disk format or entry order.
    @pytest.mark.parametrize("backend,n,sha256", [
        ("comm_real", 2, "5a51203bff0567fa25605d01b597165ef76b4cca23b2f59ba97b7e81d2459250"),
        ("clifford", 2, "98b91045307016a1e40984790fb96b66f727cb3b41469eaf19702a035045c70e"),
        ("comm_complex", 3, "df7896d5e54c5f309e9360568d3d5a12dc6671185688b0fa9844b955a82b316e"),
    ])
    def test_tensor_file_golden_sha256(self, tmp_path, backend, n, sha256):
        assert main(["lift", "--backend", backend, "--n", str(n), "--out", "t.json"]) == 0
        assert hashlib.sha256((tmp_path / "t.json").read_bytes()).hexdigest() == sha256

    def test_comm_lift_over_cap_fails_before_allocating(self, tmp_path):
        # d = 2^12: 12 dense 4096 x 4096 diagonals would take about 3.2 GB
        code = main(["lift", "--backend", "comm_real", "--n", "12", "--out", "t.json"])
        assert code == 1
        report = json.loads((tmp_path / "lift.report.json").read_text())
        assert report["pass"] is False and "cap" in report["error"]
        assert not (tmp_path / "t.json").exists()

    def test_memory_error_writes_failing_report(self, tmp_path, monkeypatch):
        def out_of_memory(args):
            raise MemoryError("lift")
        monkeypatch.setattr(cli, "_cmd_lift", out_of_memory)
        code = main(["lift", "--backend", "comm_real", "--n", "2", "--out", "t.json"])
        assert code == 1
        report = json.loads((tmp_path / "lift.report.json").read_text())
        assert report["pass"] is False and "error" in report
        assert report["command"] == "lift"


def write_tensor(path, d, entries):
    """A tensor file: 1-based (i, j, k, l) and the coefficient's (re, im)."""
    path.write_text(json.dumps({"version": 1, "d": d, "entries": entries}))


def unitarity_residual(pairs):
    u = np.asarray(pairs)[..., 0] + 1j * np.asarray(pairs)[..., 1]
    return np.abs(u.conj().T @ u - np.eye(len(u))).max()


class TestDegenerateTensors:
    """Tensors that leave indices, or whole sides of blocks, without an entry:
    the solve gives those blocks identity blocks, so A and B stay unitary."""

    @staticmethod
    def solve(tmp_path, *extra):
        assert main(["solve-ncg", "--tensor", "t.json", "--seed", "0", *extra]) == 0
        report = json.loads((tmp_path / "solve-ncg.report.json").read_text())
        assert report["pass"] is True and report["monotone"] is True
        assert max(report["unitarity_residuals"]) <= 1e-9
        return report

    def test_no_entries(self, tmp_path):
        write_tensor(tmp_path / "t.json", 3, [])
        report = self.solve(tmp_path, "--restarts", "3", "--out", "s.json")
        assert report["value"] == 0
        solution = json.loads((tmp_path / "s.json").read_text())
        assert max(unitarity_residual(solution["a"]), unitarity_residual(solution["b"])) <= 1e-9

    def test_indices_no_entry_touches(self, tmp_path):
        # one entry, on indices 1 and 3 (1-based) of 6; the other four have none
        write_tensor(tmp_path / "t.json", 6, [[1, 3, 3, 3, 0.3, -0.4]])
        report = self.solve(tmp_path, "--restarts", "4", "--out", "s.json")
        assert report["value"] == pytest.approx(0.5, abs=1e-12)
        solution = json.loads((tmp_path / "s.json").read_text())
        assert max(unitarity_residual(solution["a"]), unitarity_residual(solution["b"])) <= 1e-9

    def test_one_entry_at_the_side_cap(self, tmp_path):
        write_tensor(tmp_path / "t.json", 512, [[3, 7, 5, 2, 0.6, -0.8]])
        report = self.solve(tmp_path, "--restarts", "4")
        assert report["value"] == pytest.approx(1.0, abs=1e-12)

    def test_one_block_restarts_stay_in_the_chunk_budget(self, tmp_path):
        # a cycle through all 128 indices makes one block; its 64 restarts run
        # in chunks whose traced peak, start draws included, stays within
        # CHUNK_ENTRIES float64 entries
        d = 128
        write_tensor(tmp_path / "t.json", d,
                     [[i + 1, (i + 1) % d + 1, (i + 1) % d + 1, i + 1, 1.0, 0.0]
                      for i in range(d)])
        tracemalloc.start()
        try:
            self.solve(tmp_path, "--restarts", "64", "--iters", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * CHUNK_ENTRIES


# Reports of the commands that take a backend name or decode a field, pinned
# byte for byte: their bodies come from the backend table and vars(stats).
REDUCE = ["reduce", "--instance", "inst.json", "--assignment", "planted.json"]
DECODE = ["decode", "--instance", "inst.json", "--eps", "0.3", "--seed", "5"]
LIFT = ["lift", "--n", "2", "--out", "t.json", "--backend"]
GOLDEN_REPORTS = {
    "reduce-clifford":
        ([*REDUCE, "--backend", "clifford"],
         "30a82a681691e9e7fce97a082e142f83e8f8a611b3d3399791326370ea2a34d0"),
    "reduce-comm-real":
        ([*REDUCE, "--backend", "comm_real"],
         "648de40e841ab10d64530495dd2b9776c48c866f8a5a2f164b3f2fb233bbb718"),
    "reduce-comm-real-monte-carlo":
        ([*REDUCE, "--backend", "comm_real", "--mode", "monte_carlo",
          "--samples", "2000", "--seed", "3"],
         "e11edf88b90a4c2fcd9e31f2ed41f809ba2c05851acee59b605f554616f476aa"),
    "decode-noisy":
        ([*DECODE, "--field", "noisy.json"],
         "51ea588083156b299e2c5ad23d7ab94e1181913d00cbf725b6146c12320e13df"),
    "decode-zero":
        ([*DECODE, "--field", "zero.json"],
         "992fa2130e984acba4b48ed6fab60c9f9d8d83eae416261548263c8555bc0ea9"),
    "lift-clifford":
        ([*LIFT, "clifford"],
         "fd30e9b15248c0e5deef555dedef54e8a62d547709d135b7ce625889384be946"),
    "lift-comm-real":
        ([*LIFT, "comm_real"],
         "cb294e7eeb4900ae4350394873ace8c456d43b8ac23842d01c1f05dc7a31bd2f"),
    "lift-comm-complex":
        ([*LIFT, "comm_complex"],
         "82f287aa130561e94f65fda56e36cce684e0843fc6e214444768b3e5a4f208d4"),
}


def golden_inputs(tmp_path):
    """inst.json and planted.json from gen_args, a noisy planted field and a zero field."""
    assert main(gen_args()) == 0
    inst = fileio.load_instance(tmp_path / "inst.json")
    planted = fileio.load_assignment(tmp_path / "planted.json")
    rng = np.random.default_rng(11)
    noise = rng.normal(size=(8, 6)) + 1j * rng.normal(size=(8, 6))
    from ncglab.reduction import assignment_to_field
    fileio.save_field(assignment_to_field(inst, planted) + 0.05 * noise, tmp_path / "noisy.json")
    fileio.save_field(np.zeros((8, 6)), tmp_path / "zero.json")


@pytest.mark.parametrize("argv,sha256", list(GOLDEN_REPORTS.values()), ids=list(GOLDEN_REPORTS))
def test_report_golden_sha256(tmp_path, argv, sha256):
    golden_inputs(tmp_path)
    assert main([*argv, "--report", "r.json"]) == 0
    assert hashlib.sha256((tmp_path / "r.json").read_bytes()).hexdigest() == sha256


class TestReport:
    def test_aggregates_and_exit_code(self, tmp_path, capsys):
        main(gen_args())
        main(["comm-verify", "--field", "real", "--n-list", "1,2", "--seed", "1",
              "--report", "cv.report.json"])
        capsys.readouterr()
        code = main(["report", "--inputs", "gen-labelcover.report.json", "cv.report.json",
                     "--csv", "summary.csv"])
        assert code == 0
        lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert file_sha256(tmp_path / "summary.csv") == \
            "039c72bcdb368c3e0d730fa6e732628362d31b4f883e4906df5c753a8f45eacb"
        assert file_sha256(tmp_path / "report.report.json") == \
            "062bfb508c9303dffe8f48e2f9753ee42211cf42c62d56db1b13dc4ddb95491c"
        assert capsys.readouterr().out == (
            "  gen-labelcover (gen-labelcover.report.json): PASS\n"
            "  comm-verify (cv.report.json): PASS\nPASS\n")
        fileio.dump_json({"command": "reduce", "pass": False}, tmp_path / "bad.report.json")
        code = main(["report", "--inputs", "cv.report.json", "bad.report.json"])
        assert code == 1


class TestFieldFormat:
    def test_field_roundtrip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(13)
        fld = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        fileio.save_field(fld, tmp_path / "f.json")
        loaded = fileio.load_field(tmp_path / "f.json")
        np.testing.assert_array_equal(loaded, fld)
        fileio.save_field(loaded, tmp_path / "f2.json")
        assert (tmp_path / "f.json").read_bytes() == (tmp_path / "f2.json").read_bytes()

    def test_version_checked(self, tmp_path):
        (tmp_path / "v9.json").write_text('{"version": 9, "vertices": 1, "n": 1, '
                                          '"values": [[[0.0, 0.0]]]}\n')
        with pytest.raises(ValueError):
            fileio.load_field(tmp_path / "v9.json")


def loop_tensor_entries(tensor):
    """Reference: the entry list built one entry at a time."""
    return [[int(i) + 1, int(j) + 1, int(k) + 1, int(l) + 1, float(c.real), float(c.imag)]
            for (i, j, k, l), c in zip(tensor.indices, tensor.coeffs)]


def loop_field_values(fld):
    """Reference: the field's [re, im] lists built one entry at a time."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in fld]


class TestVectorizedFileio:
    """The column-wise writers and readers match per-entry references."""

    def signed_zero_field(self):
        rng = np.random.default_rng(31)
        fld = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        fld[0, 0] = complex(-0.0, -0.0)
        fld[0, 1] = complex(0.0, -0.0)
        fld[1, 2] = complex(-0.0, 2.5)
        return fld

    @pytest.mark.parametrize("backend,n", [("comm_real", 2), ("clifford", 2),
                                           ("comm_complex", 3)])
    def test_tensor_matches_loop(self, tmp_path, backend, n):
        assert main(["lift", "--backend", backend, "--n", str(n), "--out", "t.json"]) == 0
        doc = json.loads((tmp_path / "t.json").read_text())
        tensor = fileio.load_tensor(tmp_path / "t.json")
        assert doc["entries"] == loop_tensor_entries(tensor)
        indices = np.array([e[:4] for e in doc["entries"]], dtype=np.int64) - 1
        coeffs = np.array([complex(e[4], e[5]) for e in doc["entries"]])
        np.testing.assert_array_equal(tensor.indices, indices)
        np.testing.assert_array_equal(tensor.coeffs, coeffs)

    def test_tensor_signed_zeros_roundtrip(self, tmp_path):
        from ncglab.solvers import NcgTensor
        coeffs = self.signed_zero_field().reshape(-1)  # 15 entries
        indices = np.argwhere(np.ones((2, 2, 2, 2)))[:coeffs.size]
        tensor = NcgTensor(d=2, indices=indices, coeffs=coeffs)
        fileio.save_tensor(tensor, tmp_path / "t.json")
        assert json.loads((tmp_path / "t.json").read_text())["entries"] == \
            loop_tensor_entries(tensor)
        back = fileio.load_tensor(tmp_path / "t.json")
        assert np.array_equal(np.signbit(back.coeffs.real), np.signbit(tensor.coeffs.real))
        assert np.array_equal(np.signbit(back.coeffs.imag), np.signbit(tensor.coeffs.imag))

    def test_solution_matches_loop(self, tmp_path):
        rng = np.random.default_rng(32)
        a_mat, b_mat = self.signed_zero_field()[:3], rng.normal(size=(3, 3)) + 0j
        fileio.save_solution(0.75, a_mat, b_mat, tmp_path / "s.json")
        reference = {"version": 1, "value": 0.75,
                     "a": [[[float(z.real), float(z.imag)] for z in row] for row in a_mat],
                     "b": [[[float(z.real), float(z.imag)] for z in row] for row in b_mat]}
        fileio.dump_json(reference, tmp_path / "ref.json")
        assert (tmp_path / "s.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    def test_field_matches_loop(self, tmp_path):
        fld = self.signed_zero_field()
        fileio.save_field(fld, tmp_path / "f.json")
        assert json.loads((tmp_path / "f.json").read_text())["values"] == loop_field_values(fld)
        back = fileio.load_field(tmp_path / "f.json")
        np.testing.assert_array_equal(back, fld)
        assert np.array_equal(np.signbit(back.real), np.signbit(fld.real))
        assert np.array_equal(np.signbit(back.imag), np.signbit(fld.imag))

    @pytest.mark.parametrize("shape", [(3, 0), (0, 2)])
    def test_empty_field_roundtrip(self, tmp_path, shape):
        fileio.save_field(np.zeros(shape), tmp_path / "f.json")
        assert fileio.load_field(tmp_path / "f.json").shape == shape

    @pytest.mark.parametrize("values", [
        [[[0.5, None]]],
        [[["0.5", 0.0]]],
        [[[0.5, 0.0, 1.0]]],
        [[0.5]],
    ])
    def test_malformed_field_values(self, tmp_path, values):
        doc = {"version": 1, "vertices": 1, "n": 1, "values": values}
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            fileio.load_field(tmp_path / "bad.json")

    def test_null_field_value_fails_with_report(self, tmp_path):
        main(gen_args())
        doc = {"version": 1, "vertices": 8, "n": 6,
               "values": [[[0.0, 0.0]] * 6] * 7 + [[[0.0, 0.0]] * 5 + [[None, 0.0]]]}
        (tmp_path / "field.json").write_text(json.dumps(doc))
        code = main(["decode", "--instance", "inst.json", "--field", "field.json",
                     "--eps", "0.3", "--seed", "5"])
        assert code == 1
        report = json.loads((tmp_path / "decode.report.json").read_text())
        assert report["pass"] is False and "numbers" in report["error"]

    def test_non_numeric_tensor_entry_fails_with_report(self, tmp_path):
        (tmp_path / "bad.json").write_text(
            '{"version": 1, "d": 2, "entries": [[1, 1, 1, 1, "0.5", 0.0]]}\n')
        code = main(["solve-ncg", "--tensor", "bad.json", "--seed", "0"])
        assert code == 1
        report = json.loads((tmp_path / "solve-ncg.report.json").read_text())
        assert report["pass"] is False and "numbers" in report["error"]


# One fresh interpreter runs the six commands that never build a sparse
# matrix and checks that none of them loaded scipy, then runs reduce and
# checks that it did, so the check is seen to be able to fail.
SCIPY_FREE_SCRIPT = """
import sys
import numpy as np
import ncglab
from ncglab import cli, fileio
def run(*argv):
    return cli.main(list(argv))
assert run("gen-labelcover", "--vertices", "8", "--degree", "3", "--n", "6", "--k", "3",
           "--t", "2", "--seed", "7", "--out", "inst.json", "--planted-out", "planted.json") == 0
assert run("check-instance", "--instance", "inst.json", "--assignment", "planted.json",
           "--deltas", "0.75,1.0") == 0
fileio.save_field(np.zeros((8, 6), dtype=complex), "zero.json")
assert run("decode", "--instance", "inst.json", "--field", "zero.json", "--eps", "0.3",
           "--seed", "5") == 0
assert run("embed-verify", "--n", "4", "--seed", "3", "--trials", "20") == 0
assert run("comm-verify", "--field", "real", "--n-list", "1,2,4", "--seed", "1") == 0
assert run("report", "--inputs", "gen-labelcover.report.json", "check-instance.report.json",
           "decode.report.json", "embed-verify.report.json", "comm-verify.report.json") == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
assert run("reduce", "--instance", "inst.json", "--assignment", "planted.json",
           "--backend", "comm_real") == 0
assert "scipy.sparse" in sys.modules
"""


def test_scipy_free_commands_do_not_import_scipy(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    child = subprocess.run([sys.executable, "-c", SCIPY_FREE_SCRIPT], cwd=tmp_path,
                           env={**os.environ, "PYTHONPATH": str(src)},
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
