"""Command-line pipeline: generate instances, verify embeddings, certify
reductions, decode fields, lift little operators, and solve lifted forms.

Every command writes a machine-readable JSON report (even on failure) and
exits 0 exactly when all of its checks pass. All randomness flows through
explicit --seed flags; rerunning a command with the same seed reproduces
its output files byte for byte. There is no environment-variable
configuration.
"""

from __future__ import annotations

import argparse
import itertools
import sys

import numpy as np

from . import clifford, commutative, fileio, labelcover, linalg, reduction, solvers
from .config import DEFAULT_EPS, DEFAULT_ITERS, DEFAULT_RESTARTS, DEFAULT_TOL


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value}")
    return value


def _comma_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _comma_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _instance_checks(inst, smoothness: float) -> dict:
    return {
        "regular": inst.is_regular(),
        "connected": inst.is_connected(),
        "preimage_bound": inst.max_preimage_size() <= inst.t,
        "smoothness_ok": smoothness <= inst.gamma,
    }


def _print_verdicts(verdicts) -> None:
    """One '  name: PASS|FAIL' line per (name, ok) pair."""
    for name, ok in verdicts:
        print(f"  {name}: {'PASS' if ok else 'FAIL'}")


def _table(path, header, rows) -> list[list[str]]:
    """Write the rows under header as a CSV file at path, when a path is
    given, and return them as the report's lists of strings."""
    if path:
        fileio.write_csv(path, header, rows)
    return [[str(x) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# Command handlers: each returns (report body, passed bool); main stamps the
# body with "command" and "pass" before writing it.


def _cmd_gen_labelcover(args):
    sizes = (args.vertices, args.degree, args.n, args.k, args.t)
    if args.mode == "planted":
        inst, planted = labelcover.generate_planted(*sizes, seed=args.seed, zeta=args.zeta)
    else:
        inst, planted = labelcover.generate_random(*sizes, seed=args.seed, zeta=args.zeta), None
    fileio.save_instance(inst, args.out)
    if planted is not None and args.planted_out:
        fileio.save_assignment(planted, args.planted_out)
    # the generators set gamma to the instance's measured smoothness
    checks = _instance_checks(inst, inst.gamma)
    if planted is not None:
        checks["planted_satisfies_all"] = labelcover.satisfied_fraction(inst, planted) == 1.0
    report = {
        "params": {"vertices": args.vertices, "degree": args.degree, "n": args.n,
                   "k": args.k, "t": args.t, "zeta": args.zeta, "seed": args.seed,
                   "mode": args.mode},
        "instance_file": args.out,
        "smoothness": inst.gamma,
        "num_edges": inst.num_edges,
        "checks": checks,
    }
    print(f"wrote {args.out}: |V|={inst.num_vertices} |E|={inst.num_edges} "
          f"smoothness={report['smoothness']:.4f} t={inst.t} regular={checks['regular']}")
    return report, all(checks.values())


def _cmd_check_instance(args):
    inst = fileio.load_instance(args.instance)
    smoothness = labelcover.check_smoothness(inst)
    checks = _instance_checks(inst, smoothness)
    expansion = labelcover.check_weak_expansion(
        inst, args.deltas, subset_samples=args.subset_samples, seed=args.seed)
    checks["weak_expansion"] = all(row.passed for row in expansion)
    report = {
        "params": {"instance": args.instance, "deltas": args.deltas,
                   "subset_samples": args.subset_samples, "seed": args.seed},
        "smoothness": smoothness,
        "declared_gamma": inst.gamma,
        "expansion": [vars(row) for row in expansion],
        "checks": checks,
    }
    if args.assignment:
        labels = fileio.load_assignment(args.assignment)
        report["satisfied_fraction"] = labelcover.satisfied_fraction(inst, labels)
    _print_verdicts(checks.items())
    return report, all(checks.values())


def _cmd_reduce(args):
    inst = fileio.load_instance(args.instance)
    labels = fileio.load_assignment(args.assignment)
    backend = reduction.BACKEND_BUILDERS[args.backend](
        inst.n, args.mode, seed=args.seed, sample_count=args.samples)
    cert = reduction.completeness_certificate(inst, labels, backend)
    report = {
        "params": {"instance": args.instance, "assignment": args.assignment,
                   "backend": args.backend, "mode": args.mode, "seed": args.seed},
        "in_subspace": cert.in_subspace,
        "residual": cert.residual,
        "value": cert.value,
        "eta": backend.eta,
    }
    print(f"certificate: in_subspace={cert.in_subspace} value={cert.value:.8f} "
          f"(eta={backend.eta}) -> {'PASS' if cert.passed else 'FAIL'}")
    return report, cert.passed


def _cmd_decode(args):
    inst = fileio.load_instance(args.instance)
    fld = fileio.load_field(args.field)
    # default: the matrix embedding's spread threshold, saturated at the decoder's ceiling
    delta = args.delta if args.delta is not None else min(clifford.spread_threshold(args.eps), 1.0)
    params = reduction.DecoderParams(eps=args.eps, delta=delta, t=inst.t, seed=args.seed)
    labels, stats = reduction.decode(fld, params, inst)
    if args.assignment_out:
        fileio.save_assignment(labels, args.assignment_out)
    checks = {
        "a1_within_bound": all(s <= stats.a1_bound for s in stats.a1_sizes),
        "a2_within_bound": all(s <= stats.a2_bound for s in stats.a2_sizes),
    }
    report = {
        "params": {"instance": args.instance, "field": args.field, "eps": args.eps,
                   "delta": delta, "seed": args.seed},
        "stats": vars(stats),
        "checks": checks,
    }
    print(f"decoded: |V0|/|V|={stats.v0_fraction:.3f} satisfied={stats.satisfied_fraction:.4f}")
    return report, all(checks.values())


def _cmd_embed_verify(args):
    n, trials = args.n, args.trials
    rng = np.random.default_rng(args.seed)

    def vectors():
        """One check's trials complex vectors, each drawn as its real part
        then its imaginary part."""
        parts = rng.normal(size=(trials, 2, n))
        return parts[:, 0] + 1j * parts[:, 1]

    gens = clifford.make_generators(n)
    eye = np.eye(gens.dim)
    suite_ok = (all(np.array_equal(c, c.conj().T) and np.array_equal(c @ c, eye)
                    and c.trace() == 0 for c in gens.matrices)
                and not any(np.any(c @ d + d @ c)
                            for c, d in itertools.combinations(gens.matrices, 2)))
    rows = [["generator_suite", n, "exact", 0.0, 0.0, suite_ok]]

    family = clifford.build_phase_family(n, args.mode, seed=args.seed,
                                         sample_count=args.samples)
    exact = family.mode != "monte_carlo"

    formula_err = max(abs(clifford.trace_norm_formula(a)
                          - linalg.schatten1_norm(clifford.clifford_map(a, gens)))
                      for a in vectors())
    rows.append(["formula_vs_svd", n, f"{trials} trials", formula_err, 1e-8,
                 formula_err <= 1e-8])

    basis_err = max(abs(clifford.dictator_embedding_norm(e, family).value - 1.0)
                    for e in np.eye(n))
    rows.append(["basis_norm_one", n, family.mode, basis_err, 1e-10,
                 basis_err <= (1e-10 if exact else 1e-8)])

    estimates = [(a, clifford.dictator_embedding_norm(a, family)) for a in vectors()]
    excess = [est.value - clifford.embedding_norm_bound(a) for a, est in estimates]
    # a Monte-Carlo value may exceed the bound by three standard errors
    slack = [1e-8 + (0.0 if exact else 3.0 * est.stderr) for _, est in estimates]
    rows.append(["norm_bound", n, family.mode, max(excess), 0.0,
                 all(e <= s for e, s in zip(excess, slack))])

    if exact:
        moment_err = max(abs(clifford.randphase_second_moment(a, family)
                             - float(np.sum(np.abs(a)**2)**2 - np.sum(np.abs(a)**4)))
                         for a in (a / np.linalg.norm(a) for a in vectors()))
        rows.append(["second_moment", n, family.mode, moment_err, 1e-10,
                     moment_err <= 1e-10])

    report = {
        "params": {"n": n, "mode": args.mode, "samples": args.samples,
                   "trials": trials, "seed": args.seed},
        "rows": _table(args.csv, ["check", "n", "detail", "value", "bound", "pass"], rows),
    }
    _print_verdicts((row[0], row[5]) for row in rows)
    return report, all(row[5] for row in rows)


def _cmd_comm_verify(args):
    rows = commutative.berry_esseen_profile(
        args.n_list, args.field, mode=args.mode,
        sample_count=args.samples, seed=args.seed)
    limit = commutative.REAL_LIMIT if args.field == "real" else commutative.COMPLEX_LIMIT
    monotone = all(
        rows[i + 1].gap <= rows[i].gap + 3.0 * (rows[i].stderr + rows[i + 1].stderr) + 1e-12
        for i in range(len(rows) - 1))
    _table(args.csv, ["n", "spread", "value", "stderr", "gap"],
           [[r.n, r.spread, r.value, r.stderr, r.gap] for r in rows])
    report = {
        "params": {"field": args.field, "n_list": args.n_list, "mode": args.mode,
                   "samples": args.samples, "seed": args.seed},
        "limit": limit,
        "rows": [vars(r) for r in rows],
        "gap_monotone": monotone,
    }
    for r in rows:
        print(f"  n={r.n}: value={r.value:.6f} gap={r.gap:.6f}")
    _print_verdicts([("gap shrinkage", monotone)])
    return report, monotone


def _cmd_lift(args):
    # the matrix embedding's little operator is built from its generators, not
    # from a backend's kernel
    if args.backend == "clifford":
        op = solvers.little_op_from_clifford(args.n)
    else:
        op = solvers.little_op_from_comm(reduction.BACKEND_BUILDERS[args.backend](args.n).kernel)
    tensor = solvers.lift_little_to_big(op)
    fileio.save_tensor(tensor, args.out)
    report = {
        "params": {"backend": args.backend, "n": args.n},
        "d": tensor.d,
        "nnz": tensor.nnz,
        "tensor_file": args.out,
    }
    print(f"lifted {args.backend} n={args.n} -> d={tensor.d}, {tensor.nnz} entries")
    return report, True


def _cmd_solve_ncg(args):
    tensor = fileio.load_tensor(args.tensor)
    result = solvers.ncg_opt_lower_bound(tensor, restarts=args.restarts,
                                         iters=args.iters, tol=args.tol, seed=args.seed)
    monotone = all(
        all(h[i + 1] >= h[i] - 1e-9 for i in range(len(h) - 1))
        for h in result.histories)
    unitary_ok = (result.unitarity_residual_a <= 1e-9
                  and result.unitarity_residual_b <= 1e-9)
    report = {
        "params": {"tensor": args.tensor, "restarts": args.restarts,
                   "iters": args.iters, "tol": args.tol, "seed": args.seed},
        "value": result.value,
        "unitarity_residuals": [result.unitarity_residual_a, result.unitarity_residual_b],
        "monotone": monotone,
    }
    if args.out:
        fileio.save_solution(result.value, result.a, result.b, args.out)
    print(f"opt lower bound: {result.value:.8f} "
          f"(unitarity residuals {result.unitarity_residual_a:.2e}, "
          f"{result.unitarity_residual_b:.2e})")
    return report, monotone and unitary_ok


def _cmd_report(args):
    rows = []
    for path in args.inputs:
        doc = fileio.load_json(path)
        # a row passes only on a report object whose "pass" is JSON true
        doc = doc if isinstance(doc, dict) else {}
        rows.append([path, doc.get("command", "?"), doc.get("pass") is True])
    report = {
        "params": {"inputs": list(args.inputs)},
        "rows": _table(args.csv, ["file", "command", "pass"], rows),
    }
    _print_verdicts((f"{command} ({path})", ok) for path, command, ok in rows)
    return report, all(ok for _, _, ok in rows)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncglab",
        description="Verification pipeline for trace-norm embedding gadgets and "
                    "label-cover norm reductions.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", default=None,
                        help="path for the JSON report (default <command>.report.json)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("gen-labelcover", help="generate a synthetic instance")
    p.add_argument("--vertices", type=_positive_int, required=True)
    p.add_argument("--degree", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--t", type=_positive_int, required=True)
    p.add_argument("--zeta", type=_positive_float, default=0.1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["planted", "random"], default="planted")
    p.add_argument("--out", required=True)
    p.add_argument("--planted-out", default=None)
    p.set_defaults(handler=_cmd_gen_labelcover)

    p = add_parser("check-instance", help="structural checks on an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--assignment", default=None)
    p.add_argument("--deltas", type=_comma_floats, default=[0.25, 0.5])
    p.add_argument("--subset-samples", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_check_instance)

    p = add_parser("reduce", help="completeness certificate for an assignment")
    p.add_argument("--instance", required=True)
    p.add_argument("--assignment", required=True)
    p.add_argument("--backend", choices=sorted(reduction.BACKEND_BUILDERS), required=True)
    p.add_argument("--mode", choices=["exhaustive", "pairwise_independent", "monte_carlo"],
                   default="exhaustive")
    p.add_argument("--samples", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_reduce)

    p = add_parser("decode", help="decode a field into an assignment")
    p.add_argument("--instance", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--eps", type=_positive_float, default=DEFAULT_EPS)
    p.add_argument("--delta", type=_positive_float, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--assignment-out", default=None)
    p.set_defaults(handler=_cmd_decode)

    p = add_parser("embed-verify", help="verify the matrix embedding invariants")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--mode", choices=["exhaustive", "pairwise_independent", "monte_carlo"],
                   default="exhaustive")
    p.add_argument("--samples", type=_positive_int, default=None)
    p.add_argument("--trials", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(handler=_cmd_embed_verify)

    p = add_parser("comm-verify", help="scalar embedding limit profile")
    p.add_argument("--field", choices=["real", "complex"], required=True)
    p.add_argument("--n-list", type=_comma_ints, required=True)
    p.add_argument("--mode", choices=["auto", "exhaustive"], default="auto")
    p.add_argument("--samples", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(handler=_cmd_comm_verify)

    p = add_parser("lift", help="materialize a little operator and lift it")
    p.add_argument("--backend", choices=sorted(reduction.BACKEND_BUILDERS), required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_lift)

    p = add_parser("solve-ncg", help="alternating maximization over unitary pairs")
    p.add_argument("--tensor", required=True)
    p.add_argument("--restarts", type=_positive_int, default=DEFAULT_RESTARTS)
    p.add_argument("--iters", type=_positive_int, default=DEFAULT_ITERS)
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_solve_ncg)

    p = add_parser("report", help="aggregate command reports into a summary")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    report_path = args.report or f"{args.command}.report.json"
    try:
        body, passed = args.handler(args)
    except (ValueError, OSError, MemoryError, reduction.DecodeInvariantError) as exc:
        message = str(exc) or type(exc).__name__
        fileio.save_report({"command": args.command, "error": message, "pass": False},
                           report_path)
        print(f"error: {message}", file=sys.stderr)
        return 1
    fileio.save_report({**body, "command": args.command, "pass": passed}, report_path)
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
