"""The benchmark's four workloads.

Each workload is a closed loop: one caller makes one call into ncglab at a
time and waits for it. ``setup`` turns the seed into the workload's inputs;
``run`` does the fixed work of one repetition through ncglab's public
functions (or ``cli.main``), checks the outputs, and returns the value the
repetition certifies. Sizes are fixed here so every run does the same work;
why each workload exists is in README.md.

ncglab functions are reached as module attributes at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from ncglab import cli, commutative, fileio, labelcover, reduction

from layers import cli_span_name

# Upper limit on every certified value: each embedding is dominated by the
# l2 norm, so E_v ||f(b_v)|| <= 1 on unit fields and the lifted optimum
# ||F||^2 <= 1.
VALUE_CEILING = 1.0 + 1e-9


def _subseeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


# ---------------------------------------------------------------------------
# mc_scalar: streamed Monte-Carlo sign/phase embedding norms


MC_N = 1000
MC_SAMPLES = 50_000
MC_BAND = 0.02  # acceptance criterion 5's band around each limit
PROFILE_NS = [1, 2, 4, 8, 16, 256]  # exact up to 16, Monte-Carlo at 256
PROFILE_SAMPLES = 20_000


def setup_mc_scalar(seed: int, workdir: str) -> dict:
    real_seed, complex_seed, profile_seed = _subseeds(seed, 3)
    return {"a": np.full(MC_N, MC_N ** -0.5), "real_seed": real_seed,
            "complex_seed": complex_seed, "profile_seed": profile_seed}


def run_mc_scalar(inp: dict, checks, span) -> dict:
    ests = {}
    for field, seed in (("real", inp["real_seed"]), ("complex", inp["complex_seed"])):
        ens = commutative.SignEnsemble(field=field, n=MC_N, mode="monte_carlo",
                                       seed=seed, sample_count=MC_SAMPLES)
        ests[field] = commutative.embedding_l1_norm(inp["a"], ens)
    rows = commutative.berry_esseen_profile(PROFILE_NS, "real",
                                            sample_count=PROFILE_SAMPLES,
                                            seed=inp["profile_seed"])
    real, cplx = ests["real"], ests["complex"]
    checks.check("mc real within 0.02 of sqrt(2/pi)",
                 abs(real.value - commutative.REAL_LIMIT) <= MC_BAND, f"{real.value}")
    checks.check("mc complex within 0.02 of sqrt(pi/4)",
                 abs(cplx.value - commutative.COMPLEX_LIMIT) <= MC_BAND, f"{cplx.value}")
    checks.check("profile n=1 is exactly 1", rows[0].value == 1.0, f"{rows[0].value}")
    checks.check("profile n=2 is 1/sqrt(2) to 1e-12",
                 abs(rows[1].value - 2 ** -0.5) <= 1e-12, f"{rows[1].value}")
    checks.check("profile Monte-Carlo row within 0.02 of sqrt(2/pi)",
                 abs(rows[-1].value - commutative.REAL_LIMIT) <= MC_BAND, f"{rows[-1].value}")
    # The value's one-sided 3-sigma lower confidence bound.
    return {"lower_bound": real.value - 3.0 * real.stderr}


# ---------------------------------------------------------------------------
# subspace_ascent and subspace_large: the label-cover reduction


def _planted_setup(seed: int, vertices: int, degree: int, n: int, k: int, t: int) -> dict:
    inst, planted = labelcover.generate_planted(vertices, degree, n, k, t, seed=seed)
    ascent_seed, noise_seed, decode_seed = _subseeds(seed, 3)
    return {"inst": inst, "planted": planted, "ascent_seed": ascent_seed,
            "noise_seed": noise_seed, "decode_seed": decode_seed}


def _certify_and_ascend(inp: dict, checks, cs, basis, backend, restarts: int,
                        iters: int) -> float:
    cert = reduction.completeness_certificate(inp["inst"], inp["planted"], backend, cs=cs)
    checks.check("completeness certificate passes", cert.passed,
                 f"residual {cert.residual}, value {cert.value}")
    res = reduction.operator_norm_lower_bound(inp["inst"], backend, restarts=restarts,
                                              iters=iters, seed=inp["ascent_seed"],
                                              cs=cs, basis=basis)
    checks.check("ascent is not degenerate", not res.degenerate)
    checks.check("lower_bound <= 1 + 1e-9", res.value <= VALUE_CEILING, f"{res.value}")
    return res.value


ASCENT_SHAPE = dict(vertices=40, degree=4, n=6, k=3, t=2)
ASCENT_RESTARTS, ASCENT_ITERS = 2, 10


def setup_subspace_ascent(seed: int, workdir: str) -> dict:
    return _planted_setup(seed, **ASCENT_SHAPE)


def run_subspace_ascent(inp: dict, checks, span) -> dict:
    cs = reduction.build_constraints(inp["inst"])
    basis = reduction.subspace_basis(cs)
    backend = reduction.clifford_backend(ASCENT_SHAPE["n"], "exhaustive")
    value = _certify_and_ascend(inp, checks, cs, basis, backend,
                                ASCENT_RESTARTS, ASCENT_ITERS)
    return {"lower_bound": value}


LARGE_SHAPE = dict(vertices=300, degree=4, n=8, k=4, t=2)
LARGE_RESTARTS, LARGE_ITERS = 1, 5
LARGE_NOISE = 0.05  # acceptance criterion 8's noise level
DECODE_EPS = DECODE_DELTA = 0.9  # criterion 8's decoder setting for noisy fields


def setup_subspace_large(seed: int, workdir: str) -> dict:
    inp = _planted_setup(seed, **LARGE_SHAPE)
    rng = np.random.default_rng(inp["noise_seed"])
    shape = (LARGE_SHAPE["vertices"], LARGE_SHAPE["n"])
    inp["noise"] = LARGE_NOISE / math.sqrt(2) * (rng.normal(size=shape)
                                                 + 1j * rng.normal(size=shape))
    return inp


def run_subspace_large(inp: dict, checks, span) -> dict:
    inst, planted = inp["inst"], inp["planted"]
    cs = reduction.build_constraints(inst)
    basis = reduction.subspace_basis(cs)
    backend = reduction.clifford_backend(LARGE_SHAPE["n"], "pairwise_independent")
    noisy = basis.project(reduction.assignment_to_field(inst, planted) + inp["noise"])
    params = reduction.DecoderParams(eps=DECODE_EPS, delta=DECODE_DELTA, t=inst.t,
                                     seed=inp["decode_seed"])
    labels, stats = reduction.decode(noisy, params, inst)
    recovered = float(np.mean(labels == planted))
    checks.check("decode recovers the planted labels", recovered == 1.0,
                 f"recovered {recovered}, satisfied {stats.satisfied_fraction}")
    value = _certify_and_ascend(inp, checks, cs, basis, backend, LARGE_RESTARTS, LARGE_ITERS)
    return {"lower_bound": value, "decode_recovered_frac": recovered}


# ---------------------------------------------------------------------------
# cli_pipeline: the file-based command surface, in process


CLI_SHAPE = dict(vertices=40, degree=4, n=6, k=3, t=2)
CLI_FIELD_NOISE = 0.02
CLI_LIFT = ("comm_complex", 3)
UNITARY_TOL = 1e-9
# The lifted tensor does not depend on the workload seed, and solve-ncg's
# restart seed alone moves its work by about 14% (756 to 996 half-steps
# over seeds 1-10), so the solver seed is fixed.
CLI_SOLVE_SEED = 0


def setup_cli_pipeline(seed: int, workdir: str) -> dict:
    gen_seed, audit_seed, decode_seed, noise_seed = _subseeds(seed, 4)
    # gen-labelcover rebuilds this instance from the same seed; the field is
    # the planted one-hot field plus seeded noise.
    shape = CLI_SHAPE
    inst, planted = labelcover.generate_planted(shape["vertices"], shape["degree"], shape["n"],
                                                shape["k"], shape["t"], seed=gen_seed)
    rng = np.random.default_rng(noise_seed)
    noise = rng.normal(size=(inst.num_vertices, inst.n)) + 1j * rng.normal(
        size=(inst.num_vertices, inst.n))
    fld = reduction.assignment_to_field(inst, planted) + CLI_FIELD_NOISE / math.sqrt(2) * noise
    fileio.save_field(fld, os.path.join(workdir, "field.json"))
    return {"dir": workdir, "planted": planted, "gen_seed": gen_seed,
            "audit_seed": audit_seed, "decode_seed": decode_seed}


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def _unitarity_residual(mat) -> float:
    return float(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max())


def _complex_matrix(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def run_cli_pipeline(inp: dict, checks, span) -> dict:
    d = inp["dir"]

    def path(name):
        return os.path.join(d, name)

    reports = []

    def call(command, *argv, expect):
        report = path(f"{command}.report.json")
        if os.path.exists(report):
            os.remove(report)
        with span(cli_span_name(command)):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                try:
                    code = cli.main([command, *argv, "--report", report])
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
        reports.append(report)
        checks.check(f"{command} exits {expect}", code == expect, f"exit {code}")
        return _read(report) if os.path.exists(report) else {}

    shape = CLI_SHAPE
    gen = call("gen-labelcover", "--vertices", str(shape["vertices"]),
               "--degree", str(shape["degree"]), "--n", str(shape["n"]),
               "--k", str(shape["k"]), "--t", str(shape["t"]),
               "--seed", str(inp["gen_seed"]), "--out", path("inst.json"),
               "--planted-out", path("planted.json"), expect=0)
    checks.check("gen-labelcover edge count",
                 gen.get("num_edges") == shape["vertices"] * shape["degree"] // 2)
    checks.check("gen-labelcover plants the set-up assignment",
                 _read(path("planted.json"))["labels"] == (inp["planted"] + 1).tolist())

    # The sampled weak-expansion audit fails on this 4-regular circulant at
    # delta=0.25: size-10 subsets need 2.5 induced edges and about one random
    # subset in 14 has fewer, so all 200 samples pass with probability
    # below 1e-6. The expected verdict is FAIL on that check alone.
    audit = call("check-instance", "--instance", path("inst.json"),
                 "--assignment", path("planted.json"), "--deltas", "0.25,0.5",
                 "--seed", str(inp["audit_seed"]), expect=1)
    audit_checks = audit.get("checks", {})
    checks.check("check-instance fails only the weak-expansion audit",
                 audit_checks.get("weak_expansion") is False
                 and all(ok for name, ok in audit_checks.items() if name != "weak_expansion"),
                 f"{audit_checks}")
    checks.check("planted assignment satisfies every edge",
                 audit.get("satisfied_fraction") == 1.0)

    red = call("reduce", "--instance", path("inst.json"), "--assignment", path("planted.json"),
               "--backend", "clifford", expect=0)
    checks.check("reduce certificate passes", red.get("pass") is True)

    call("decode", "--instance", path("inst.json"), "--field", path("field.json"),
         "--eps", str(DECODE_EPS), "--delta", str(DECODE_DELTA),
         "--seed", str(inp["decode_seed"]), "--assignment-out", path("decoded.json"),
         expect=0)
    checks.check("decode recovers the planted labels",
                 _read(path("decoded.json"))["labels"] == (inp["planted"] + 1).tolist())

    backend, n = CLI_LIFT
    lift = call("lift", "--backend", backend, "--n", str(n), "--out", path("tensor.json"),
                expect=0)
    checks.check("lift dimension", lift.get("d") == 4 ** n, f"{lift.get('d')}")

    solve = call("solve-ncg", "--tensor", path("tensor.json"),
                 "--seed", str(CLI_SOLVE_SEED), "--out", path("solution.json"), expect=0)
    checks.check("solve-ncg histories are monotone", solve.get("monotone") is True)
    value = solve.get("value", float("nan"))
    checks.check("lower_bound <= 1 + 1e-9", value <= VALUE_CEILING, f"{value}")
    # Re-derive the certificate from the written files.
    solution = _read(path("solution.json"))
    a_mat, b_mat = _complex_matrix(solution["a"]), _complex_matrix(solution["b"])
    residual = max(_unitarity_residual(a_mat), _unitarity_residual(b_mat))
    checks.check("unitarity residuals <= 1e-9", residual <= UNITARY_TOL, f"{residual}")
    entries = np.asarray(_read(path("tensor.json"))["entries"], dtype=float)
    i, j, k, l = (entries[:, c].astype(int) - 1 for c in range(4))
    coeffs = entries[:, 4] + 1j * entries[:, 5]
    recomputed = abs(np.sum(coeffs * a_mat[i, j] * np.conj(b_mat[k, l])))
    checks.check("solution value matches the tensor contraction",
                 abs(recomputed - value) <= 1e-9 * max(1.0, abs(value)),
                 f"{recomputed} vs {value}")

    # report aggregates every report above; check-instance's FAIL makes it exit 1.
    summary = call("report", "--inputs", *reports, expect=1)
    failing = [row[1] for row in summary.get("rows", []) if row[2] != "True"]
    checks.check("report lists check-instance as the only failure",
                 failing == ["check-instance"], f"{failing}")
    return {"lower_bound": value}


# name -> (setup(seed, workdir) -> inputs, run(inputs, checks, span) -> values).
# workdir is a temporary directory that outlives the run's repetitions.
WORKLOADS = {
    "mc_scalar": (setup_mc_scalar, run_mc_scalar),
    "subspace_ascent": (setup_subspace_ascent, run_subspace_ascent),
    "subspace_large": (setup_subspace_large, run_subspace_large),
    "cli_pipeline": (setup_cli_pipeline, run_cli_pipeline),
}
