import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from ncglab import cli, fileio, solvers
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

    @pytest.mark.parametrize("zeta", ["nan", "inf", "-1"])
    def test_non_finite_zeta_is_usage_error(self, tmp_path, zeta):
        with pytest.raises(SystemExit) as err:
            main(gen_args(extra=("--zeta", zeta)))
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
         {"inst.json": "7149ac546897860247ba812ff23336327ee0b36d0446ea3c6d13b74380abddbc",
          "planted.json": "e99509b44fb84dabc4e06062eac1f72569ef9526a5122a592622932530b15019",
          "gen-labelcover.report.json":
              "4cb3154a4a1dd7330bec86b66bf57f03b870ba3889b4bb32b0b8a0486be5aa10"}),
        (["--vertices", "12", "--degree", "4", "--n", "6", "--k", "3", "--t", "2",
          "--seed", "7", "--mode", "random"],
         {"inst.json": "da4aad70d18b395e804da2957e1d4431df4edf709d8367a839d2297c4aa92941",
          "gen-labelcover.report.json":
              "1ccd9720d65e1de5a9946dda326fd1a01834d865c67cdc57dd153bc0b96aa91d"}),
        (["--vertices", "300", "--degree", "4", "--n", "8", "--k", "4", "--t", "2",
          "--seed", "1"],
         {"inst.json": "b178ce2c983602e62e9b2e660dea869f43869a849f544b7acaed77fc23ac85e0",
          "gen-labelcover.report.json":
              "9b171552486e7f09b6d88740ec4d8e0e8e19d3501b2694b6295b9547576c3292"}),
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
            "ed128209654f49e4c5791c2c3013b71303343b44803eba8a085a2ad52eb8622b"
        assert capsys.readouterr().out == "".join(f"  {name}: PASS\n" for name in (
            "regular", "connected", "preimage_bound", "smoothness_ok",
            "weak_expansion")) + "PASS\n"

    @pytest.mark.parametrize("deltas", ["0.001", "5", ","])
    def test_unusable_delta_grid_fails(self, tmp_path, deltas):
        # at |V| = 40 the subset sizes of deltas 0.001 and 5 are 0 and 200
        main(["gen-labelcover", "--vertices", "40", "--degree", "4", "--n", "6", "--k", "3",
              "--t", "2", "--seed", "1", "--out", "inst.json"])
        code = main(["check-instance", "--instance", "inst.json", "--deltas", deltas])
        assert code == 1
        report = json.loads((tmp_path / "check-instance.report.json").read_text())
        assert report["pass"] is False and "weak-expansion" in report["error"]


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


    @pytest.mark.parametrize("backend", ["clifford", "comm_real"])
    def test_exhaustive_ignores_samples(self, tmp_path, backend):
        main(gen_args())
        argv = ["reduce", "--instance", "inst.json", "--assignment", "planted.json",
                "--backend", backend]
        assert main([*argv, "--report", "plain.json"]) == 0
        assert main([*argv, "--samples", "5", "--report", "samples.json"]) == 0
        assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "samples.json").read_bytes()

    def test_backend_added_to_the_table_reaches_reduce_and_lift(self, tmp_path, monkeypatch):
        from ncglab import reduction
        monkeypatch.setitem(reduction.BACKEND_BUILDERS, "comm_real_copy",
                            reduction.comm_real_backend)
        main(gen_args())
        for backend in ("comm_real", "comm_real_copy"):
            assert main(["reduce", "--instance", "inst.json", "--assignment", "planted.json",
                         "--backend", backend]) == 0
            assert main(["lift", "--backend", backend, "--n", "2",
                         "--out", f"{backend}.json"]) == 0
        assert (tmp_path / "comm_real.json").read_bytes() == \
            (tmp_path / "comm_real_copy.json").read_bytes()


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


# stdout of an embed-verify run whose checks all pass, with and without the
# second-moment row that only exact families have
EMBED_VERIFY_PASS = "".join(f"  {name}: PASS\n" for name in (
    "generator_suite", "formula_vs_svd", "basis_norm_one", "norm_bound",
    "second_moment")) + "PASS\n"
EMBED_VERIFY_PASS_SAMPLED = EMBED_VERIFY_PASS.replace("  second_moment: PASS\n", "")


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
            "3e808137aa3a57a327a295188edad9033df1d05214936f7916eb46f49d462849"
        assert file_sha256(tmp_path / "embed-verify.report.json") == \
            "81fc0f4b332e7fe913dcf01abcfbc84b96dbd46109d2fd9f8ffc9beb741790ed"
        assert capsys.readouterr().out == EMBED_VERIFY_PASS

    def test_monte_carlo_mode(self, tmp_path, capsys):
        code = main(["embed-verify", "--n", "12", "--mode", "monte_carlo",
                     "--samples", "20000", "--seed", "3", "--trials", "20"])
        assert code == 0
        assert file_sha256(tmp_path / "embed-verify.report.json") == \
            "ef5ebd9c0e0336a9ee0c65f18a98ec7c5dc9f464d96cb0f9ea821edff7460ddd"
        assert capsys.readouterr().out == EMBED_VERIFY_PASS_SAMPLED

    def test_pairwise_mode(self, tmp_path, capsys):
        assert main(["embed-verify", "--n", "6", "--mode", "pairwise_independent",
                     "--seed", "3", "--trials", "30"]) == 0
        assert file_sha256(tmp_path / "embed-verify.report.json") == \
            "b95ec1c46115ead22662dc38c08a71cc4ab2338275ff602ea07356716c228889"
        assert capsys.readouterr().out == EMBED_VERIFY_PASS

    def test_single_coordinate_degenerate_pass(self, tmp_path, capsys):
        assert main(["embed-verify", "--n", "1", "--seed", "3", "--trials", "20"]) == 0
        assert file_sha256(tmp_path / "embed-verify.report.json") == \
            "9a124453a2d803a03f06529edf4b56134b1add7174bf647230680d12046e92e1"
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
            "ca19aa83a4f453ef820087a8b907636c35b4cc748e6ac4626b0f1db7cff7224e"

    def test_complex_value(self, tmp_path):
        code = main(["comm-verify", "--field", "complex", "--n-list", "1,2",
                     "--seed", "1"])
        assert code == 0
        report = json.loads((tmp_path / "comm-verify.report.json").read_text())
        values = {row["n"]: row["value"] for row in report["rows"]}
        assert values[2] == pytest.approx((1 + np.sqrt(2)) / (2 * np.sqrt(2)), abs=1e-12)
        assert file_sha256(tmp_path / "comm-verify.report.json") == \
            "c6fcdbdd9210df2d6f484d63d250c93bdfe1e17dd975d9da75abcb47d43c7cf5"


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
            "9752dcc652952bddc4c64e77a68f91e45cad897fbc0522ab0ab0bd980017dad2"
        assert file_sha256(tmp_path / "solution.json") == \
            "d7a9192f58fff895a7d8861397f28a3da674869f8bf85ec3cc56727c844dfea2"

    def test_clifford_solve_golden_sha256(self, tmp_path):
        # Clifford images have 2 x 2 blocks, so every polar step takes a
        # batched SVD; test_solvers checks this case against the dense solve.
        assert main(["lift", "--backend", "clifford", "--n", "2", "--out", "tensor.json"]) == 0
        assert main(["solve-ncg", "--tensor", "tensor.json", "--restarts", "4",
                     "--seed", "1", "--out", "solution.json"]) == 0
        assert file_sha256(tmp_path / "solve-ncg.report.json") == \
            "e72fd45ebe686e6d10ac1ccd3c221ff06d9626305b45d6a5ddb13fa51fb44fcc"
        assert file_sha256(tmp_path / "solution.json") == \
            "371d0217f6f564288016ddb42a3eb909f600275efbc2f56d69707b8062d312a1"

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
        ("clifford", 2, "bc9dddf945f4404092dc02ef479652d0da5e83d57a0cfa4af4e272b3a9a4079d"),
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
        # in chunks whose traced peak stays within CHUNK_ENTRIES float64
        # entries, beside the d x d Haar draw each start is cut from
        d = 128
        write_tensor(tmp_path / "t.json", d,
                     [[i + 1, (i + 1) % d + 1, (i + 1) % d + 1, i + 1, 1.0, 0.0]
                      for i in range(d)])
        tracemalloc.start()
        try:
            solvers._haar_unitary(d, np.random.default_rng(0))
            draw = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            self.solve(tmp_path, "--restarts", "64", "--iters", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * CHUNK_ENTRIES + draw


# Reports of the commands that take a backend name or decode a field, pinned
# byte for byte: their bodies come from the backend table and vars(stats).
REDUCE = ["reduce", "--instance", "inst.json", "--assignment", "planted.json"]
DECODE = ["decode", "--instance", "inst.json", "--eps", "0.3", "--seed", "5"]
LIFT = ["lift", "--n", "2", "--out", "t.json", "--backend"]
GOLDEN_REPORTS = {
    "reduce-clifford":
        ([*REDUCE, "--backend", "clifford"],
         "fc168472ff7a166d9c3159f742c113f4c1edc6c0f532238d616145a74e9fb4b3"),
    "reduce-comm-real":
        ([*REDUCE, "--backend", "comm_real"],
         "431ff950a83d5eea2a8aca41e610cc2e9363b02ced37b9175859bed919a51631"),
    "reduce-clifford-monte-carlo":
        ([*REDUCE, "--backend", "clifford", "--mode", "monte_carlo",
          "--samples", "2000", "--seed", "3"],
         "74588bae5c6320927376c9530d1c392d055ce5cec229c4dbb69a1b7201bbb4a6"),
    "decode-noisy":
        ([*DECODE, "--field", "noisy.json"],
         "51ea588083156b299e2c5ad23d7ab94e1181913d00cbf725b6146c12320e13df"),
    "decode-zero":
        ([*DECODE, "--field", "zero.json"],
         "992fa2130e984acba4b48ed6fab60c9f9d8d83eae416261548263c8555bc0ea9"),
    "lift-clifford":
        ([*LIFT, "clifford"],
         "0d61d4692a855b66443c3d349bfcb14104cd71994c616dc532028ebd4724884e"),
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
