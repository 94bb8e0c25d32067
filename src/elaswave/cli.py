"""Command-line front end.

Every subcommand reads material JSON files, prints machine-readable output
(JSON or CSV, floats at 17 significant digits for byte-stable regression
fixtures), and maps validation errors to exit code 2 and numerical-domain
errors to exit code 3, with a structured JSON error on stderr.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import _lapack
from . import boundary as bnd
from . import layered as lyr
from .acoustic import christoffel_modes, fibonacci_sphere
from .errors import (
    ElasticError,
    NumericalDomainError,
    OutputFileError,
    ValidationError,
)
from .factorization import BoundaryFrame, factorization_residual
from .impedance import Impedance
from .materials import (
    check_strong_convexity,
    decompose_harmonic,
    load_material,
    to_voigt,
)
from .scatter import (
    energy_balance,
    free_surface_operator,
    interface_operator,
    side_incoming_mode,
)


# Every float of the output, JSON or CSV, prints at 17 significant digits:
# enough to give back the same double, so outputs are byte-stable fixtures.
_FLOAT = "%.17g"
_JSON_FLOAT = '"' + _FLOAT + '"'       # JSON writes a float as a string
_quote = json.encoder.encode_basestring_ascii


def _fmt(x) -> str:
    return _FLOAT % float(x)


def render_json(doc) -> str:
    """doc as the CLI's JSON text: keys sorted, an indent of 2 and a final
    newline; floats (numpy's too) as strings of 17 significant digits,
    complex values as {"im": ..., "re": ...}, arrays as nested lists, ints
    and bools as integers (1/0), and dict keys through str(), the later of
    two keys with the same str() kept.

    The text is byte for byte what json.dumps, with sorted keys and an
    indent of 2, plus a newline makes of jsonable(doc), where jsonable
    turns the floats, complex values, arrays, numpy ints and keys into the
    forms above (the pair kept as the oracle in tests/oracles.py); like
    that pair it raises TypeError on any other type, such as a set or
    np.bool_.  It makes one pass that appends to a single list of parts and
    joins it once: about twice as fast as that pair, whose indent selects
    json's pure-Python encoder.  The dicts of a list that have the same str
    keys in the same order, such as a trace's events, sort and quote their
    keys once.
    """
    parts = []
    _render(doc, parts, "\n")
    parts.append("\n")
    return "".join(parts)


def _render(o, parts: list, newline: str) -> None:
    """Append o's JSON text to parts; newline starts each of o's lines."""
    t = type(o)
    if t is float:
        parts.append(_JSON_FLOAT % o)
    elif t is dict:
        if o:
            _render_dict(o, parts, newline, _heads(o, newline))
        else:
            parts.append("{}")
    elif t is list or t is tuple:
        if not o:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        keys = heads = None     # of the last dict met, keys only if all str
        for v in o:
            parts.append(sep)
            tv = type(v)
            if tv is float:
                parts.append(_JSON_FLOAT % v)
            elif tv is dict and v:
                # 1, 1.0 and True are equal keys that print differently, so
                # only str keys let an equal key tuple reuse the heads
                k = tuple(v)
                if k != keys:
                    heads = _heads(v, inner)
                    keys = k if all(type(key) is str for key in k) else None
                _render_dict(v, parts, inner, heads)
            else:
                _render(v, parts, inner)
            sep = "," + inner
        parts.append(newline + "]")
    elif t is str:
        parts.append(_quote(o))
    elif t is int or t is bool:
        parts.append("%d" % o)
    elif o is None:
        parts.append("null")
    elif isinstance(o, dict):
        _render(dict(o), parts, newline)
    elif isinstance(o, (list, tuple)):
        _render(list(o), parts, newline)
    elif isinstance(o, (complex, np.complexfloating)):
        _render({"re": float(o.real), "im": float(o.imag)}, parts, newline)
    elif isinstance(o, (float, np.floating)):
        parts.append(_JSON_FLOAT % float(o))
    elif isinstance(o, (int, np.integer)):
        parts.append("%d" % int(o))
    elif isinstance(o, np.ndarray):
        _render(o.tolist(), parts, newline)
    elif isinstance(o, str):
        parts.append(_quote(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _heads(o: dict, newline: str) -> list:
    """(head, key) of each entry of a non-empty dict, in output order: the
    head is the text before the entry's value (the brace or comma, the
    line's start, the quoted str(key) and the colon).  Of two keys with the
    same str() the later is kept."""
    inner = newline + "  "
    keys = {str(k): k for k in o}
    return [(("," if i else "{") + inner + _quote(text) + ": ", keys[text])
            for i, text in enumerate(sorted(keys))]


def _render_dict(o: dict, parts: list, newline: str, heads: list) -> None:
    """Append a non-empty dict's JSON text to parts, given its `_heads`."""
    inner = newline + "  "
    for head, key in heads:
        parts.append(head)
        _render(o[key], parts, inner)
    parts.append(newline + "}")


def _matrix(m: np.ndarray):
    """m for render_json: complex as {"re": ..., "im": ...} of real arrays."""
    return {"re": m.real, "im": m.imag} if np.iscomplexobj(m) else m


def _emit(text: str, args) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputFileError(f"cannot write --out {args.out}: "
                                  f"{exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(doc, args) -> None:
    _emit(render_json(doc), args)


def _emit_csv(header: list[str], rows, args) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (float, np.floating))
                              else str(v) for v in row))
    _emit("\n".join(lines) + "\n", args)


_NU = np.array([0.0, 0.0, 1.0])


def _frame(args) -> BoundaryFrame:
    eta = np.array([args.eta[0], args.eta[1], 0.0])
    return BoundaryFrame(_NU, eta, args.tau)


def _unit(vec, flag: str) -> np.ndarray:
    """Unit vector along a flag's value; none if its length is zero or not finite."""
    vec = np.asarray(vec, dtype=float)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(vec)
    if not (np.isfinite(norm) and norm > 0):
        raise ValidationError(f"{flag} must be nonzero with a finite length "
                              "to give a direction")
    return vec / norm


def _grid(args) -> int:
    if args.grid < 0:
        raise ValidationError(f"--grid must not be negative, got {args.grid}")
    return args.grid


# --- subcommand handlers ----------------------------------------------------

def _cmd_material(args) -> int:
    path = args.material or args.path
    if path is None:
        raise ValidationError("material subcommand needs a material file path")
    m = load_material(path)
    convex, min_eig = check_strong_convexity(m.stiffness)
    if args.validate:
        _emit_json({"name": m.name, "valid": True, "strongly_convex": convex,
                    "min_eigenvalue": min_eig}, args)
        return 0
    h = decompose_harmonic(m.stiffness)
    _emit_json({
        "name": m.name,
        "density": m.density,
        "strongly_convex": convex,
        "min_eigenvalue": min_eig,
        "harmonic": {
            "lambda": h.lam, "mu": h.mu,
            "deviator_a_norm": float(np.linalg.norm(h.a)),
            "deviator_b_norm": float(np.linalg.norm(h.b)),
            "harmonic_norm": float(np.linalg.norm(h.h)),
        },
        "voigt": _matrix(to_voigt(m.stiffness)),
    }, args)
    return 0


def _cmd_slowness(args) -> int:
    m = load_material(args.material)
    if args.direction is not None:
        directions = [_unit(args.direction, "--direction")]
    else:
        directions = fibonacci_sphere(_grid(args))
    rows = []
    for d in directions:
        vals = np.sort(christoffel_modes(m, d).speeds)[::-1]
        gap = float(np.min(vals[:-1] - vals[1:]))
        rows.append((d[0], d[1], d[2], *vals, gap))
    header = ["dir_x", "dir_y", "dir_z", "speed_1", "speed_2", "speed_3",
              "min_speed_gap"]
    if args.format == "csv":
        _emit_csv(header, rows, args)
    else:
        _emit_json({"columns": header, "rows": [list(r) for r in rows]}, args)
    return 0


def _cmd_factorize(args) -> int:
    side = bnd.BoundarySide(load_material(args.material), _frame(args))
    f = side.factorization(args.direction)
    rng = np.random.default_rng(0)
    samples = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    _emit_json({
        "direction": f.direction,
        "sigma": list(f.sigma),
        "q": _matrix(f.q),
        "q_sharp": _matrix(f.q_sharp),
        "solvency_residual": f.solvency_residual,
        "factorization_residual": factorization_residual(f, samples),
    }, args)
    return 0


def _cmd_impedance(args) -> int:
    m = load_material(args.material)
    frame = _frame(args)
    side = bnd.BoundarySide(m, frame)
    z = Impedance(side.z())
    pr = side.projectors()
    # flux_form -tau Im(u|zu) of 100 random traces u, drawn as (re, im) pairs
    draws = np.random.default_rng(0).standard_normal((100, 2, 3))
    u = draws[:, 0] + 1j * draws[:, 1]
    fluxes = -frame.tau * np.imag(np.einsum("ki,ki->k", (u @ z.z.T).conj(), u))
    _emit_json({
        "z": _matrix(z.z),
        "eigenvalues_hermitian_part":
            list(_lapack.eigvalsh(0.5 * (z.z + z.z.conj().T))),
        "singular_values": list(_lapack.svdvals(z.z)),
        "dim_ec": pr.dim_ec,
        "hermiticity_residual_on_ec": z.hermiticity_residual(pr.ec_basis()),
        "flux_spot_check_min": float(fluxes.min()),
        "flux_spot_check_max": float(fluxes.max()),
    }, args)
    return 0


def _load_sides(args):
    if args.material is not None:
        return load_material(args.material)
    if args.material_plus is None or args.material_minus is None:
        raise ValidationError(
            "need --material, or both --material-plus and --material-minus")
    return (load_material(args.material_plus), load_material(args.material_minus))


def _cmd_classify(args) -> int:
    sides = _load_sides(args)
    if _grid(args):
        radius = math.hypot(*args.eta)     # N azimuths at radius |eta|, from angle 0
        start = BoundaryFrame(_NU, np.array([radius, 0.0, 0.0]), args.tau)
        # for even N, azimuth k + N/2 is azimuth k's antipode -eta, whose
        # impedance is z_out(eta)^T (A(nu, -eta; s) = A(nu, eta; -s)), with the
        # same label and margin, so only the first half is solved; + 0.0, exact
        # for every nonzero entry, keeps a zero radius's 0 from printing as -0
        paired = args.grid % 2 == 0
        frames = (start.with_eta(radius * np.array([np.cos(ang), np.sin(ang), 0.0]) + 0.0)
                  for ang in (2.0 * np.pi * k / args.grid
                              for k in range(args.grid // 2 if paired else args.grid)))
        rows = [(frame.eta[0], frame.eta[1], args.tau, region.label,
                 0.0 if margin is None else margin)
                for frame, region, margin in bnd.classify_frames(sides, frames)]
        if paired:          # 0.0 - x, so that no antipodal 0 prints as -0
            rows += [(0.0 - ex, 0.0 - ey, *rest) for ex, ey, *rest in rows]
        _emit_csv(["eta_x", "eta_y", "tau", "label", "margin"], rows, args)
        return 0
    frame = _frame(args)
    region = bnd.classify(sides, frame)
    _emit_json({"label": region.label,
                "dim_ec": list(region.dim_ec),
                "dim_intersection": region.dim_intersection}, args)
    return 0


def _surface_wave_doc(res: bnd.RayleighResult):
    return {
        "tau_r": res.tau_r,
        "slowness": res.slowness,
        "tau_eta": res.tau_eta,
        "polarization": list(res.polarization.astype(complex)),
        "bracket": list(res.bracket),
        "det_residual": res.det_residual,
    }


def _cmd_rayleigh(args) -> int:
    m = load_material(args.material)
    eta_hat = _unit([args.eta[0], args.eta[1], 0.0], "--eta")
    res = bnd.rayleigh_speed(m, _NU, eta_hat)
    _emit_json(_surface_wave_doc(res), args)
    return 0


def _cmd_stoneley(args) -> int:
    mp = load_material(args.material_plus)
    mm = load_material(args.material_minus)
    eta_hat = _unit([args.eta[0], args.eta[1], 0.0], "--eta")
    res = bnd.stoneley_speed(mp, mm, _NU, eta_hat)
    _emit_json(_surface_wave_doc(res), args)
    return 0


def _cmd_reflect(args) -> int:
    sides = bnd._sides(_load_sides(args), _frame(args))
    inc = side_incoming_mode(sides[0], args.mode)     # the + side serves the incident mode
    law = free_surface_operator if len(sides) == 1 else interface_operator
    result = law(*sides).apply(inc)
    report = energy_balance(result)
    rows = []
    for tag in sorted(result.sides):
        side = result.sides[tag]
        for s in sorted(side.amplitudes):
            a = side.amplitudes[s]
            rows.append((args.eta[0], args.eta[1], args.tau, inc.s_in, tag, s,
                         a[0].real, a[0].imag, a[1].real, a[1].imag,
                         a[2].real, a[2].imag, side.fluxes[s],
                         result.balance_residual))
    header = ["eta_x", "eta_y", "tau", "s_in", "side", "s_out",
              "a1_re", "a1_im", "a2_re", "a2_im", "a3_re", "a3_im",
              "flux", "balance_residual"]
    if args.format == "csv":
        _emit_csv(header, rows, args)
    else:
        _emit_json({"columns": header, "rows": [list(r) for r in rows],
                    "incident_flux": result.incident_flux,
                    "energy": report}, args)
    return 0


def _cmd_trace(args, arrivals_only: bool = False) -> int:
    stack = lyr.load_stack(args.stack)
    tree = lyr.trace_plane_wave(stack, (args.eta[0], args.eta[1]), args.tau,
                                source_layer=args.source_layer,
                                source_mode=args.mode,
                                max_events=args.max_events,
                                amplitude_floor=args.amplitude_floor)
    if arrivals_only:
        _emit_csv(["time", "layer", "mode_s", "amplitude", "flux"],
                  lyr.arrivals_rows(tree), args)
    else:
        _emit_json(tree.to_dict(), args)
    return 0


# --- parser -----------------------------------------------------------------

# argparse reads -1 and -0.5 after a flag as numbers but -1e-1 as an option;
# no option here looks like a number, so every negative number is a value.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _add_frame_args(p, tau_required: bool = True):
    p.add_argument("--eta", nargs=2, type=float, required=True,
                   metavar=("X", "Y"))
    if tau_required:
        p.add_argument("--tau", type=float, required=True)


def _add_output(p, formats: tuple = ()):
    """--out, and --format for the commands that print more than one format."""
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--out", default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs
    about thirty times what one `parse_args` does."""
    parser = argparse.ArgumentParser(
        prog="elaswave",
        description="Elastodynamic boundary quantities for layered anisotropic media")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("material", help="validate and decompose a material file")
    p.add_argument("path", nargs="?", default=None)
    p.add_argument("--material", default=None)
    p.add_argument("--validate", action="store_true")
    _add_output(p)

    p = sub.add_parser("slowness", help="Christoffel speeds over directions")
    p.add_argument("--material", required=True)
    p.add_argument("--grid", type=int, default=100)
    p.add_argument("--direction", nargs=3, type=float, default=None,
                   metavar=("X", "Y", "Z"))
    _add_output(p, ("json", "csv"))

    p = sub.add_parser("factorize", help="spectral factorization at a frame")
    p.add_argument("--material", required=True)
    p.add_argument("--direction", choices=("outgoing", "incoming"),
                   default="outgoing")
    _add_frame_args(p)
    _add_output(p)

    p = sub.add_parser("impedance", help="outgoing impedance at a frame")
    p.add_argument("--material", required=True)
    _add_frame_args(p)
    _add_output(p)

    p = sub.add_parser("classify", help="region of a frame or angular grid")
    p.add_argument("--material", default=None)
    p.add_argument("--material-plus", default=None)
    p.add_argument("--material-minus", default=None)
    p.add_argument("--grid", type=int, default=0)
    _add_frame_args(p)
    _add_output(p)

    p = sub.add_parser("rayleigh", help="free-surface wave speed")
    p.add_argument("--material", required=True)
    _add_frame_args(p, tau_required=False)
    _add_output(p)

    p = sub.add_parser("stoneley", help="interface wave speed")
    p.add_argument("--material-plus", required=True)
    p.add_argument("--material-minus", required=True)
    _add_frame_args(p, tau_required=False)
    _add_output(p)

    p = sub.add_parser("reflect", help="reflection/transmission amplitudes")
    p.add_argument("--material", default=None)
    p.add_argument("--material-plus", default=None)
    p.add_argument("--material-minus", default=None)
    p.add_argument("--mode", type=int, default=0)
    _add_frame_args(p)
    _add_output(p, ("json", "csv"))

    for name, help_text in (("trace", "layered plane-wave event tree"),
                            ("arrivals", "surface arrival table of a trace")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--stack", required=True)
        p.add_argument("--source-layer", type=int, default=0)
        p.add_argument("--mode", type=int, default=0)
        p.add_argument("--max-events", type=int, default=64)
        p.add_argument("--amplitude-floor", type=float, default=1e-4)
        _add_frame_args(p)
        _add_output(p, ("csv",) if name == "arrivals" else ())

    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


_HANDLERS = {
    "material": _cmd_material,
    "slowness": _cmd_slowness,
    "factorize": _cmd_factorize,
    "impedance": _cmd_impedance,
    "classify": _cmd_classify,
    "rayleigh": _cmd_rayleigh,
    "stoneley": _cmd_stoneley,
    "reflect": _cmd_reflect,
    "trace": _cmd_trace,
    "arrivals": lambda a: _cmd_trace(a, arrivals_only=True),
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except np.linalg.LinAlgError as exc:
        # A LAPACK failure is numerical, not bad input, although numpy's
        # LinAlgError is a ValueError.
        _print_error(exc)
        return NumericalDomainError.exit_code
    except ElasticError as exc:
        _print_error(exc)
        return exc.exit_code


def _print_error(exc: Exception) -> None:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(doc, sort_keys=True) + "\n")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
