"""ncglab's layers as the traced run sees them: which calls get a span,
which counts each span carries, and the per-layer metrics derived from the
spans of one repetition."""

from __future__ import annotations

import importlib
import inspect
import os

from stats import median
from tracing import foreign_time, is_descendant, layer_self_times, children

# Library modules whose public functions are wrapped. The cli layer is
# traced by the workload itself, one span per cli.main call.
WRAPPED_LAYERS = ("commutative", "clifford", "labelcover", "reduction", "solvers",
                  "linalg", "fileio")
LAYERS = WRAPPED_LAYERS + ("cli",)
CLI_COMMANDS = ("gen-labelcover", "check-instance", "reduce", "decode", "lift",
                "solve-ncg", "report")

# Public methods that carry per-vertex work; wrapped like functions.
WRAPPED_METHODS = (("reduction", "EmbeddingBackend", "norm_and_gradient"),)


def _rows(a, n: int) -> int:
    """Vectors of length n in ``a``: 1 for a single vector, V for a (V, n) batch."""
    size = getattr(a, "size", None)
    return max(1, size // n) if size else 1


def _written(args, _result):
    path = args.get("path")
    return {"bytes": os.path.getsize(path)} if path and os.path.exists(path) else {}


ANNOTATORS = {
    "commutative.embedding_l1_norm": lambda a, r: {
        "draws": a["ens"].sample_count * a["ens"].n if a["ens"].mode == "monte_carlo" else 0},
    "clifford.build_phase_family": lambda a, r: {"family_size": r.size},
    "clifford.embedding_norm_and_gradient": lambda a, r: {
        "member_evals": a["family"].size * _rows(a["a"], a["family"].n)},
    "reduction.build_constraints": lambda a, r: {"nnz": int(r.matrix.nnz)},
    "reduction.subspace_basis": lambda a, r: {"basis_dim": r.dim},
    "reduction.operator_norm_lower_bound": lambda a, r: {"vertices": a["inst"].num_vertices},
    "reduction.EmbeddingBackend.norm_and_gradient": lambda a, r: {
        "rows": _rows(a["a"], a["self"].n)},
    "labelcover.generate_planted": lambda a, r: {"edges": r[0].num_edges},
    "labelcover.generate_random": lambda a, r: {"edges": r.num_edges},
    "solvers.lift_little_to_big": lambda a, r: {"nnz": r.nnz,
                                                "dense_bytes": a["op"].d ** 4 * 16},
    "solvers.ncg_opt_lower_bound": lambda a, r: {
        "half_steps": sum(len(h) for h in r.histories)},
}
for _name in ("save_instance", "save_assignment", "save_field", "save_tensor",
              "save_report", "dump_json", "write_csv"):
    ANNOTATORS[f"fileio.{_name}"] = _written


def install(tracer) -> None:
    """Wrap every public function of each library layer. A name another
    module bound with ``from .layer import f`` (solvers' polar_unitary, for
    one) is wrapped too, under the defining layer's span name."""
    modules = {name: importlib.import_module(f"ncglab.{name}") for name in LAYERS}
    modules["ncglab"] = importlib.import_module("ncglab")
    wrappers = {}
    for layer in WRAPPED_LAYERS:
        mod = modules[layer]
        for attr, fn in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            wrappers[fn] = tracer.wrap(name, fn, ANNOTATORS.get(name))
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                tracer.patch(mod, attr, wrappers[value])
    for layer, cls_name, method in WRAPPED_METHODS:
        cls = getattr(modules[layer], cls_name)
        name = f"{layer}.{cls_name}.{method}"
        tracer.patch(cls, method, tracer.wrap(name, getattr(cls, method),
                                              ANNOTATORS.get(name)))


def cli_span_name(command: str) -> str:
    return f"cli.{command}"


def cli_metric_name(command: str) -> str:
    return f"cli.{command.replace('-', '_')}_s"


def _total(spans, name, attr=None):
    picked = [sp for sp in spans if sp.name == name]
    if not picked:
        return None
    if attr is None:
        return sum(sp.duration for sp in picked)
    return sum(sp.attrs.get(attr, 0) for sp in picked)


def _largest(spans, name, attr):
    values = [sp.attrs[attr] for sp in spans if sp.name == name and attr in sp.attrs]
    return max(values) if values else None


def unit_metrics(spans, notes: dict) -> dict[str, float]:
    """Per-layer metrics of one traced unit (the set-up or one repetition).

    A metric whose layer or call did not occur in the unit is left out, so
    an unexercised layer reads as absent rather than as zero.
    """
    m: dict[str, float | None] = {}
    kids = children(spans)

    mc = [sp for sp in spans
          if sp.name == "commutative.embedding_l1_norm" and sp.attrs.get("draws")]
    if mc:
        m["commutative.mc_s"] = sum(sp.duration for sp in mc)
        m["commutative.draws"] = sum(sp.attrs["draws"] for sp in mc)
        m["commutative.ns_per_draw"] = m["commutative.mc_s"] / m["commutative.draws"] * 1e9

    m["clifford.family_build_s"] = _total(spans, "clifford.build_phase_family")
    m["clifford.family_size"] = _largest(spans, "clifford.build_phase_family", "family_size")
    grad = "clifford.embedding_norm_and_gradient"
    m["clifford.norm_grad_s"] = _total(spans, grad)
    m["clifford.member_evals"] = _total(spans, grad, "member_evals")
    if m["clifford.member_evals"]:
        m["clifford.ns_per_member_eval"] = (m["clifford.norm_grad_s"]
                                            / m["clifford.member_evals"] * 1e9)

    m["reduction.constraints_s"] = _total(spans, "reduction.build_constraints")
    m["reduction.constraint_nnz"] = _largest(spans, "reduction.build_constraints", "nnz")
    m["reduction.subspace_basis_s"] = _total(spans, "reduction.subspace_basis")
    m["reduction.basis_dim"] = _largest(spans, "reduction.subspace_basis", "basis_dim")
    ascents = [i for i, sp in enumerate(spans)
               if sp.name == "reduction.operator_norm_lower_bound"]
    if ascents:
        m["reduction.ascent_s"] = sum(spans[i].duration for i in ascents)
        m["reduction.ascent_self_s"] = sum(spans[i].duration - foreign_time(spans, i, kids)
                                           for i in ascents)
        vertex_evals = sum(sp.attrs.get("rows", 0) for j, sp in enumerate(spans)
                           if sp.name == "reduction.EmbeddingBackend.norm_and_gradient"
                           and any(is_descendant(spans, j, i) for i in ascents))
        vertices = spans[ascents[0]].attrs["vertices"]
        m["reduction.objective_evals"] = vertex_evals / vertices
        if vertex_evals:
            m["reduction.us_per_vertex_eval"] = m["reduction.ascent_s"] / vertex_evals * 1e6
    m["reduction.certificate_s"] = _total(spans, "reduction.completeness_certificate")
    m["reduction.decode_s"] = _total(spans, "reduction.decode")
    m["reduction.decode_recovered_frac"] = notes.get("decode_recovered_frac")

    generated = [sp for sp in spans if sp.name in ("labelcover.generate_planted",
                                                   "labelcover.generate_random")]
    if generated:
        m["labelcover.generate_s"] = sum(sp.duration for sp in generated)
        m["labelcover.edges"] = max(sp.attrs["edges"] for sp in generated)
    m["labelcover.smoothness_s"] = _total(spans, "labelcover.check_smoothness")
    m["labelcover.expansion_s"] = _total(spans, "labelcover.check_weak_expansion")

    m["solvers.lift_s"] = _total(spans, "solvers.lift_little_to_big")
    m["solvers.lift_nnz"] = _largest(spans, "solvers.lift_little_to_big", "nnz")
    m["solvers.lift_dense_bytes"] = _largest(spans, "solvers.lift_little_to_big", "dense_bytes")
    ncg = [i for i, sp in enumerate(spans) if sp.name == "solvers.ncg_opt_lower_bound"]
    if ncg:
        m["solvers.ncg_s"] = sum(spans[i].duration for i in ncg)
        m["solvers.half_steps"] = sum(spans[i].attrs["half_steps"] for i in ncg)
        m["solvers.ncg_self_s"] = sum(spans[i].duration - foreign_time(spans, i, kids)
                                      for i in ncg)
        if m["solvers.half_steps"]:
            m["solvers.us_per_half_step"] = m["solvers.ncg_s"] / m["solvers.half_steps"] * 1e6

    polar = [sp for sp in spans if sp.name == "linalg.polar_unitary"]
    if polar:
        m["linalg.polar_calls"] = len(polar)
        m["linalg.polar_s"] = sum(sp.duration for sp in polar)

    # Outermost fileio spans only: save_report calls dump_json on the same file.
    io = [sp for sp in spans
          if sp.layer == "fileio" and (sp.parent is None or spans[sp.parent].layer != "fileio")]
    writes = [sp for sp in io if sp.func.startswith(("save_", "dump_", "write_"))]
    loads = [sp for sp in io if sp.func.startswith("load_")]
    if writes:
        m["fileio.save_s"] = sum(sp.duration for sp in writes)
        m["fileio.bytes_written"] = sum(sp.attrs.get("bytes", 0) for sp in writes)
    if loads:
        m["fileio.load_s"] = sum(sp.duration for sp in loads)

    for command in CLI_COMMANDS:
        m[cli_metric_name(command)] = _total(spans, cli_span_name(command))
    for layer, seconds in layer_self_times(spans).items():
        m[f"{layer}.self_s"] = seconds
    return {k: float(v) for k, v in m.items() if v is not None}


def aggregate(unit_values: list[dict], setup_values: dict) -> dict[str, float]:
    """Median over the traced repetitions of each metric they produce; a
    metric only the set-up produces (instance generation outside the CLI)
    is taken from the traced set-up."""
    names = set(setup_values).union(*unit_values) if unit_values else set(setup_values)
    out = {}
    for name in sorted(names):
        values = [u[name] for u in unit_values if name in u]
        out[name] = median(values) if values else setup_values[name]
    return out


# Per-layer metrics as BENCHMARK.json lists them: (name, unit, better).
PER_LAYER = [
    ("commutative.mc_s", "s", "lower"),
    ("commutative.draws", "count", "lower"),
    ("commutative.ns_per_draw", "ns", "lower"),
    ("clifford.family_build_s", "s", "lower"),
    ("clifford.family_size", "count", "lower"),
    ("clifford.norm_grad_s", "s", "lower"),
    ("clifford.member_evals", "count", "lower"),
    ("clifford.ns_per_member_eval", "ns", "lower"),
    ("reduction.constraints_s", "s", "lower"),
    ("reduction.constraint_nnz", "count", "lower"),
    ("reduction.subspace_basis_s", "s", "lower"),
    ("reduction.basis_dim", "count", "lower"),
    ("reduction.ascent_s", "s", "lower"),
    ("reduction.ascent_self_s", "s", "lower"),
    ("reduction.objective_evals", "count", "lower"),
    ("reduction.us_per_vertex_eval", "us", "lower"),
    ("reduction.certificate_s", "s", "lower"),
    ("reduction.decode_s", "s", "lower"),
    ("reduction.decode_recovered_frac", "frac", "higher"),
    ("labelcover.generate_s", "s", "lower"),
    ("labelcover.smoothness_s", "s", "lower"),
    ("labelcover.expansion_s", "s", "lower"),
    ("labelcover.edges", "count", "lower"),
    ("solvers.lift_s", "s", "lower"),
    ("solvers.lift_nnz", "count", "lower"),
    ("solvers.lift_dense_bytes", "bytes", "lower"),
    ("solvers.ncg_s", "s", "lower"),
    ("solvers.half_steps", "count", "lower"),
    ("solvers.us_per_half_step", "us", "lower"),
    ("solvers.ncg_self_s", "s", "lower"),
    ("linalg.polar_calls", "count", "lower"),
    ("linalg.polar_s", "s", "lower"),
    ("fileio.save_s", "s", "lower"),
    ("fileio.load_s", "s", "lower"),
    ("fileio.bytes_written", "bytes", "lower"),
] + [(cli_metric_name(c), "s", "lower") for c in CLI_COMMANDS] + [
    (f"{layer}.self_s", "s", "lower") for layer in LAYERS
] + [
    ("trace.overhead_s", "s", "lower"),
]
