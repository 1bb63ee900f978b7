"""Command-line front end: one verdict line per run, artifacts on disk.

Every subcommand prints a single verdict line on stdout, writes its report
(JSON, plus CSV or ``.obj`` where natural) into the output directory, and
exits with a contract code:

    0   verdict true / computation succeeded
    1   verdict false (the checked property fails)
    2   usage error (bad flags, malformed profile spec, bad preconditions)
    3   numeric failure (no quadrature convergence or bracketed root, a
        floating-point fault, a degenerate mesh, too few calibration lines)

Two tables decide which flags a run may take: `_SURFACES` says which surface
flags each (command, ``--surface``) pair reads, and `_DOMAINS` holds the
domain of each numeric flag.  Both are checked once, before any handler.

The output directory comes from ``--output-dir``, the ``HEISURF_OUTPUT_DIR``
environment variable, or the current directory, in that order.  Stochastic
commands take ``--seed``; identical arguments and seed reproduce the output
files byte for byte.
"""
from __future__ import annotations

import argparse
import math
import os
import re
import shlex
import sys
import warnings
from typing import Any, Optional, Sequence

import numpy as np

from .families import (
    RuledEntireGraph,
    broken_plane_area,
    broken_plane_energy,
    build_competitor,
    chord_obstruction_check,
    competitor_compare,
    scaling_limit,
    sigma_rho_area,
    sigma_rho_area_quadrature,
    sigma_rho_membership,
    sigma_rho_surface,
)
from .lines import CalibrationError, calibrate_ratio, monotonicity_check
from .meshes import (
    DegenerateMeshError,
    broken_plane_mesh,
    competitor_mesh,
    mesh_from_ruled,
    strip_mesh,
    write_obj,
)
from .profilespec import ProfileSpec, ProfileSpecError, parse_profile
from .quadrature import QuadratureError
from .reports import atomic_write_text, dump_csv, dump_json, fmt17
from .strips import (ProfileError, PwlProfile, SolverError, broken_plane,
                     strip_surface)
from .surfaces import strip_patch
from .variation import second_variation_experiment

__all__ = ["main", "build_parser", "OUTPUT_DIR_ENV",
           "EXIT_TRUE", "EXIT_FALSE", "EXIT_USAGE", "EXIT_NUMERIC"]

OUTPUT_DIR_ENV = "HEISURF_OUTPUT_DIR"

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_SLOPE_EPS = 1e-9

#: One slope rule per chart, shared by check-strip and check-minimal: the
#: lowest admissible slope and the bound every slope stays below.  The alpha
#: slope t is the sigma slope 2t/(2+t), so sigma's [-2, 2) is alpha's
#: [-1, inf); an alpha fan of slope -2 is not a strip (`alpha_to_sigma`
#: refuses it).
_SLOPE_RULES = {"sigma": (-2.0, 2.0), "alpha": (-1.0, math.inf)}


# ---------------------------------------------------------------------------
# flag tables

#: argparse settings of the surface flags, keyed by dest.  They all default
#: to None, so that a given flag can be told from an omitted one.
_SURFACE_FLAGS = {
    "profile": {}, "kind": {"choices": ("sigma", "alpha")}, "rho": {},
    "u": {"type": float},
    "competitor_kind": {"choices": ("minimal", "harmonic")},
    "z_cap": {"type": float}, "window": {"help": "height window 'lo,hi'"},
    "x_max": {"type": float},
}

#: The surface flags each (command, --surface) pair reads; a trailing "?"
#: marks one that may be omitted.  Any other surface flag is refused.
_SURFACES = {
    **{(command, surface): flags
       for command in ("area", "energy")
       for surface, flags in (("strip", "profile kind? window x_max?"),
                              ("broken-plane", "u z_cap"),
                              ("sigma-rho", "rho window"))},
    ("monotonicity", "strip"): "profile kind? x_max?",
    ("monotonicity", "broken-plane"): "u x_max?",
    ("monotonicity", "sigma-rho"): "rho window",
    ("export-obj", "strip"): "profile kind? window x_max?",
    ("export-obj", "broken-plane"): "u window x_max?",
    ("export-obj", "sigma-rho"): "rho window",
    ("export-obj", "competitor"): "u competitor_kind? z_cap?",
}

#: What an omitted optional surface flag stands for; an omitted competitor
#: --z-cap is twice the opening.
_SURFACE_DEFAULTS = {"kind": "sigma", "x_max": 1.0,
                     "competitor_kind": "minimal"}

_NONNEGATIVE = (lambda x: math.isfinite(x) and x >= 0.0,
                "a finite number >= 0")
_POSITIVE = (lambda x: math.isfinite(x) and x > 0.0, "a finite number > 0")

#: The domain of each numeric flag: a test and what the error says the
#: value must be.  A (command, flag) key overrides the flag's domain for one
#: command.  Comma-separated values are tested as tuples of floats.
_DOMAINS = {
    **dict.fromkeys(("u", "max_z"), _NONNEGATIVE),
    **dict.fromkeys(("x_max", "radius", "r1", "r2"), _POSITIVE),
    **dict.fromkeys(("z_cap", "z_floor"), (math.isfinite, "a finite number")),
    "window": (lambda w: (len(w) == 2 and all(map(math.isfinite, w))
                          and w[0] < w[1]), "two finite numbers lo < hi"),
    ("scaling-limit", "window"): _POSITIVE,
    "lambdas": (lambda ls: (len(set(ls)) == len(ls) >= 2
                            and all(_POSITIVE[0](x) for x in ls)),
                "two or more distinct finite numbers > 0"),
    "t_grid": (lambda ts: all(map(math.isfinite, ts)), "finite numbers"),
    **dict.fromkeys(("lines", "res", "x_res"), (lambda n: n >= 1,
                                                "at least 1")),
    **dict.fromkeys(("check_chords", "seed"), (lambda n: n >= 0,
                                               "at least 0")),
}


def _option(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _check_domains(args) -> None:
    """Test every given numeric flag against its domain; comma-separated
    values are replaced by their tuples of floats."""
    for dest, value in list(vars(args).items()):
        domain = _DOMAINS.get((args.command, dest), _DOMAINS.get(dest))
        if domain is None or value is None:
            continue
        test, text = domain
        try:
            parsed = (tuple(float(p) for p in value.split(","))
                      if isinstance(value, str) else value)
            ok = test(parsed)
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"{_option(dest)} must be {text}, got {value!r}")
        setattr(args, dest, parsed)


def _read_surface_flags(args) -> None:
    """Check the surface flags against `_SURFACES`: refuse the ones the pair
    does not read and require the ones it cannot do without.  Fill in the
    defaults, build --profile/--rho, and keep in ``args.inputs`` the values
    the payload records."""
    surface = getattr(args, "surface", None)
    if surface is None:
        return
    reads = _SURFACES[args.command, surface].split()
    pair = f"{args.command} --surface {surface}"
    args.inputs = {}
    for dest in _SURFACE_FLAGS:
        value = getattr(args, dest, None)
        if dest not in reads and dest + "?" not in reads:
            if value is not None:
                raise ValueError(f"{_option(dest)} must be omitted with {pair}")
            continue
        if value is None and dest in reads:
            raise ValueError(f"{_option(dest)} is required with {pair}")
        if value is None:
            value = _SURFACE_DEFAULTS.get(dest)
        args.inputs[dest] = list(value) if dest == "window" else value
        if dest in ("profile", "rho"):
            spec, value = _build_profile(value)
            args.inputs[dest] = spec.to_json()
        setattr(args, dest, value)


def _build_surface(args):
    """The surface the pair's command works on."""
    if args.surface == "strip":
        return strip_surface(args.profile, kind=args.kind, x_max=args.x_max)
    if args.surface == "broken-plane":
        return broken_plane(args.u, x_max=args.x_max)
    if args.surface == "competitor":
        return build_competitor(args.competitor_kind, args.u)
    if args.command == "monotonicity":
        return sigma_rho_membership(args.rho, args.window)
    return sigma_rho_surface(args.rho, args.window)


# ---------------------------------------------------------------------------
# small plumbing


def _outdir(args) -> str:
    return args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "."


def _artifact_path(args, extension: str) -> str:
    base = args.out or args.command
    return os.path.join(_outdir(args), base + extension)


def _payload(args, **entries) -> dict:
    return {"command": args.command,
            "argv": ["heisurf", *args.argv],
            **entries}


def _write_json(args, payload: dict) -> str:
    return atomic_write_text(_artifact_path(args, ".json"),
                             dump_json(payload))


def _build_profile(text: str) -> tuple[ProfileSpec, Any]:
    spec = parse_profile(text)
    return spec, spec.build()


def _slope_witness(profile, threshold: float):
    """Worst slope strictly below threshold, with its parameter interval."""
    if isinstance(profile, PwlProfile):
        slopes = profile.piece_slopes()
        knots = profile.w
        bounds = [(-math.inf, float(knots[0]))]
        bounds += [(float(a), float(b)) for a, b in zip(knots[:-1], knots[1:])]
        bounds.append((float(knots[-1]), math.inf))
        idx = int(np.argmin(slopes))
        if slopes[idx] >= threshold:
            return None
        return float(slopes[idx]), bounds[idx]
    lo, _hi = profile.slope_bounds()
    if lo >= threshold:
        return None
    z = np.linspace(-50.0, 50.0, 4001)
    d = np.asarray(profile.derivative(z), dtype=float)
    i = int(np.argmin(d))
    return float(lo), (float(z[max(i - 1, 0)]),
                       float(z[min(i + 1, len(z) - 1)]))


def _witness_text(witness) -> str:
    slope, (lo, hi) = witness
    return f"witness slope {fmt17(slope)} on [{fmt17(lo)},{fmt17(hi)}]"


def _witness_json(witness):
    if witness is None:
        return None
    slope, (lo, hi) = witness
    return {"slope": slope, "interval": [lo, hi]}


# ---------------------------------------------------------------------------
# verdict commands on profiles


def _slope_verdict(args):
    """Verdict of ``--profile`` under its chart's slope rule.

    Returns (spec, slope bounds, verdict, witness, verdict-line detail).
    """
    spec, profile = _build_profile(args.profile)
    lo, hi = profile.slope_bounds()
    floor, ceiling = _SLOPE_RULES[args.kind]
    ok = lo >= floor - _SLOPE_EPS and hi < ceiling
    witness = _slope_witness(profile, floor - _SLOPE_EPS)
    if witness is None and not ok:
        witness = (hi, (-math.inf, math.inf))
    detail = f"profile={spec.spec_string()} slopes=[{fmt17(lo)},{fmt17(hi)}]"
    if not ok and witness is not None:
        detail += " " + _witness_text(witness)
    return spec, [lo, hi], ok, witness, detail


def _cmd_check_strip(args) -> int:
    spec, bounds, ok, witness, detail = _slope_verdict(args)
    rule = ("sigma slopes must lie in [-2, 2)" if args.kind == "sigma" else
            "alpha slopes must be >= -1 (sigma slopes in [-2, 2))")
    _write_json(args, _payload(
        args, profile=spec.to_json(), kind=args.kind, verdict=bool(ok),
        slope_bounds=bounds, witness=_witness_json(witness), rule=rule))
    print(f"check-strip: {'PASS' if ok else 'FAIL'} {detail}")
    return EXIT_TRUE if ok else EXIT_FALSE


def _cmd_check_minimal(args) -> int:
    spec, bounds, ok, witness, detail = _slope_verdict(args)
    rule = ("area minimality needs all alpha slopes >= -1"
            if args.kind == "alpha" else
            "area minimality needs the strip graphical: "
            "sigma slopes in [-2, 2)")
    _write_json(args, _payload(
        args, profile=spec.to_json(), kind=args.kind, verdict=bool(ok),
        slope_bounds=bounds, threshold=_SLOPE_RULES[args.kind][0],
        witness=_witness_json(witness), rule=rule))
    print(f"check-minimal: {'PASS' if ok else 'FAIL'} {detail}")
    return EXIT_TRUE if ok else EXIT_FALSE


# ---------------------------------------------------------------------------
# scalar computations


def _cmd_scalar(args) -> int:
    area = args.command == "area"
    if args.surface == "broken-plane":
        fn = broken_plane_area if area else broken_plane_energy
        value = fn(args.u, args.z_cap)
    elif args.surface == "sigma-rho" and area:
        value = sigma_rho_area(args.rho, *args.window)
    else:
        surface = _build_surface(args)
        if args.surface == "strip":
            surface = strip_patch(surface, args.window)
        value = surface.area() if area else surface.intrinsic_energy()
    _write_json(args, _payload(args, surface=args.surface, value=value,
                               **args.inputs))
    print(f"{args.command}: OK surface={args.surface} value={fmt17(value)}")
    return EXIT_TRUE


# ---------------------------------------------------------------------------
# experiments


def _cmd_second_variation(args) -> int:
    alpha_spec, alpha = _build_profile(args.alpha)
    tau_spec, tau = _build_profile(args.tau)
    if not isinstance(alpha, PwlProfile) or not isinstance(tau, PwlProfile):
        raise ValueError("second-variation needs piecewise-linear profiles "
                         "(constant, linear, broken-plane-alpha, "
                         "triangle-bump or samples)")
    result = second_variation_experiment(alpha, tau, window=args.window,
                                         lambdas=args.lambdas)
    # plateaued sweeps carry an odd |lambda|^3 residual, so the fit only
    # reaches a few percent of the analytic value; 5% covers both regimes
    ok = result.consistent(rel_tol=0.05)
    rows = [(lam, delta, lam * lam * result.second_variation)
            for lam, delta in zip(result.lambdas, result.delta_areas)]
    csv_path = atomic_write_text(
        _artifact_path(args, ".csv"),
        dump_csv(("lambda", "delta_area", "quadratic_model"), rows))
    _write_json(args, _payload(
        args, alpha=alpha_spec.to_json(), tau=tau_spec.to_json(),
        window=list(result.window), lambdas=list(result.lambdas),
        delta_areas=list(result.delta_areas),
        second_variation=result.second_variation,
        quadratic_fit=result.quadratic_fit,
        quartic_fit=result.quartic_fit,
        residual_order=result.residual_order, consistent=bool(ok)))
    print(f"second-variation: {'PASS' if ok else 'FAIL'} "
          f"II={fmt17(result.second_variation)} "
          f"fitted-c={fmt17(result.quadratic_fit)} "
          f"order={result.residual_order:.2f} csv={os.path.basename(csv_path)}")
    return EXIT_TRUE if ok else EXIT_FALSE


def _cmd_monotonicity(args) -> int:
    report = monotonicity_check(_build_surface(args), radius=args.radius,
                                n=args.lines, seed=args.seed)
    ok = report.passed
    histogram = {str(k): v for k, v in report.histogram.items()}
    violations = [{"theta": line.theta, "v": line.v, "w": line.w,
                   "roots": list(roots)}
                  for line, roots in report.violations]
    _write_json(args, _payload(
        args, surface=args.surface, n_lines=report.n_lines, seed=report.seed,
        radius=report.radius, histogram=histogram,
        degenerate_lines=report.degenerate_lines,
        count_method=report.count_method, violations=violations,
        max_crossings=report.max_crossings, verdict=bool(ok),
        **args.inputs))
    print(f"monotonicity: {'PASS' if ok else 'FAIL'} surface={args.surface} "
          f"lines={report.n_lines} max-crossings={report.max_crossings} "
          f"violations={len(report.violations)}")
    return EXIT_TRUE if ok else EXIT_FALSE


def _finite_or_none(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def _cmd_scaling_limit(args) -> int:
    spec, profile = _build_profile(args.profile)
    graph = RuledEntireGraph(profile)
    report = scaling_limit(graph, t_grid=args.t_grid, window=args.window)
    ok = (not report.errors) or report.converged()
    # a vertical-plane limit has infinite opening and tail slopes; `kind`
    # says so, and the payload writes them as null
    _write_json(args, _payload(
        args, profile=spec.to_json(), kind=report.kind,
        slope_neg_limit=_finite_or_none(report.slope_neg_limit),
        slope_pos_limit=_finite_or_none(report.slope_pos_limit),
        theta=report.theta, u=_finite_or_none(report.u),
        t_grid=list(report.t_grid), errors=list(report.errors),
        converged=bool(ok)))
    u_text = "inf" if math.isinf(report.u) else fmt17(report.u)
    print(f"scaling-limit: {'PASS' if ok else 'FAIL'} kind={report.kind} "
          f"theta={fmt17(report.theta)} u={u_text}")
    return EXIT_TRUE if ok else EXIT_FALSE


def _cmd_sigma_rho(args) -> int:
    spec, rho = _build_profile(args.rho)
    a, b = args.window
    closed = sigma_rho_area(rho, a, b)
    quad = sigma_rho_area_quadrature(rho, a, b)
    gap = abs(closed - quad) / max(abs(closed), 1e-300)
    surface = sigma_rho_surface(rho, (a, b))
    residual = surface.horizontality_residual()
    ok = gap <= 1e-6 and residual <= 1e-9
    obstruction = None
    if args.check_chords:
        z1 = a + 0.25 * (b - a)
        z2 = a + 0.75 * (b - a)
        rep = chord_obstruction_check(rho, z1, z2, n=args.check_chords,
                                      seed=args.seed)
        obstruction = {"z_left": z1, "z_right": z2, "ok": rep.ok,
                       "min_abs_offset": rep.min_abs_offset,
                       "corner_offset": rep.corner_offset,
                       "n_pairs": rep.n_pairs}
        ok = ok and rep.ok and rep.corner_offset <= 1e-9
    _write_json(args, _payload(
        args, rho=spec.to_json(), window=[a, b], area=closed,
        area_quadrature=quad, relative_gap=gap,
        horizontality_residual=residual, obstruction=obstruction,
        verdict=bool(ok)))
    extra = ""
    if obstruction is not None:
        extra = (" chords="
                 + ("clear" if obstruction["ok"] else "violated"))
    print(f"sigma-rho: {'PASS' if ok else 'FAIL'} area={fmt17(closed)} "
          f"quad-gap={gap:.3e}{extra}")
    return EXIT_TRUE if ok else EXIT_FALSE


def _cmd_competitor(args) -> int:
    report = competitor_compare(args.u, z_cap=args.z_cap,
                                z_floor=args.z_floor)
    ok = report.area_margin > 0.0
    rows = [
        ("area_competitor", report.area_competitor),
        ("area_reference", report.area_reference),
        ("area_margin", report.area_margin),
        ("energy_competitor", report.energy_competitor),
        ("energy_reference", report.energy_reference),
        ("energy_margin", report.energy_margin),
    ]
    rows += [(f"area_piece_{k}", v) for k, v in report.area_pieces.items()]
    rows += [(f"energy_piece_{k}", v)
             for k, v in report.energy_pieces.items()]
    csv_path = atomic_write_text(_artifact_path(args, ".csv"),
                                 dump_csv(("quantity", "value"), rows))
    _write_json(args, _payload(
        args, u=report.u, z_cap=report.z_cap, z_floor=report.z_floor,
        area_competitor=report.area_competitor,
        area_reference=report.area_reference,
        area_margin=report.area_margin,
        energy_competitor=report.energy_competitor,
        energy_reference=report.energy_reference,
        energy_margin=report.energy_margin,
        area_pieces=dict(report.area_pieces),
        energy_pieces=dict(report.energy_pieces), verdict=bool(ok)))
    print(f"competitor: {'PASS' if ok else 'FAIL'} u={fmt17(report.u)} "
          f"area-margin={fmt17(report.area_margin)} "
          f"energy-margin={fmt17(report.energy_margin)} "
          f"csv={os.path.basename(csv_path)}")
    return EXIT_TRUE if ok else EXIT_FALSE


def _cmd_calibrate_lines(args) -> int:
    result = calibrate_ratio(args.r1, args.r2, n=args.lines, seed=args.seed)
    ok = abs(result.zscore) <= args.max_z
    _write_json(args, _payload(
        args, r1=args.r1, r2=args.r2, n=args.lines, seed=args.seed,
        ratio=result.ratio, se=result.se, expected=result.expected,
        zscore=result.zscore, max_z=args.max_z, verdict=bool(ok)))
    print(f"calibrate-lines: {'PASS' if ok else 'FAIL'} "
          f"ratio={fmt17(result.ratio)} expected={fmt17(result.expected)} "
          f"z={result.zscore:+.2f}")
    return EXIT_TRUE if ok else EXIT_FALSE


# ---------------------------------------------------------------------------
# mesh export


def _cmd_export_obj(args) -> int:
    res = args.res
    x_res = args.x_res if args.x_res is not None else res
    header = ("heisurf " + shlex.join(args.argv), "seed: none",
              f"resolution: {res}x{x_res}")
    surface = _build_surface(args)
    if args.surface == "strip":
        mesh = strip_mesh(surface, args.window, x_res, res, header)
    elif args.surface == "broken-plane":
        mesh = broken_plane_mesh(surface, args.window, x_res, res, header)
    elif args.surface == "sigma-rho":
        mesh = mesh_from_ruled(surface, res, x_res, header)
    else:
        z_cap = 2.0 * args.u if args.z_cap is None else args.z_cap
        mesh = competitor_mesh(surface, z_cap, res, x_res, header)

    base = args.out or args.surface
    path = os.path.join(_outdir(args), base + ".obj")
    write_obj(mesh, path)
    print(f"export-obj: OK surface={args.surface} "
          f"vertices={mesh.n_vertices} faces={mesh.n_faces} "
          f"file={os.path.basename(path)}")
    return EXIT_TRUE


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are one stderr line, like
    every other exit-2 error."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output-dir", default=None,
                     help="directory for artifacts (default: "
                          f"${OUTPUT_DIR_ENV} or the current directory)")
    sub.add_argument("--out", default=None,
                     help="base name for artifact files "
                          "(default: the subcommand name)")


def _add_surface(sub: argparse.ArgumentParser, command: str) -> None:
    """--surface and every surface flag one of its choices reads."""
    pairs = {s: f.replace("?", "").split()
             for (c, s), f in _SURFACES.items() if c == command}
    sub.add_argument("--surface", choices=tuple(pairs), required=True)
    for dest, settings in _SURFACE_FLAGS.items():
        if any(dest in reads for reads in pairs.values()):
            sub.add_argument(_option(dest), default=None, **settings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heisurf",
        description="Minimal-surface experiments in the Heisenberg group.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check-strip",
                        help="is the profile's ruled surface a graph?")
    p.add_argument("--profile", required=True)
    p.add_argument("--kind", choices=("sigma", "alpha"), default="sigma")
    _add_common(p)
    p.set_defaults(func=_cmd_check_strip)

    p = subs.add_parser("check-minimal",
                        help="is the profile's surface area-minimizing?")
    p.add_argument("--profile", required=True)
    p.add_argument("--kind", choices=("alpha", "sigma"), default="alpha")
    _add_common(p)
    p.set_defaults(func=_cmd_check_minimal)

    for name, help_text in (("area", "horizontal perimeter of a surface"),
                            ("energy", "intrinsic Dirichlet energy")):
        p = subs.add_parser(name, help=help_text)
        _add_surface(p, name)
        _add_common(p)
        p.set_defaults(func=_cmd_scalar)

    p = subs.add_parser("second-variation",
                        help="exact deformed areas vs the quadratic model")
    p.add_argument("--alpha", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--window", default=None)
    p.add_argument("--lambdas", default=(0.02, 0.04, 0.06, 0.08))
    _add_common(p)
    p.set_defaults(func=_cmd_second_variation)

    p = subs.add_parser("monotonicity",
                        help="crossing census over random horizontal lines")
    _add_surface(p, "monotonicity")
    p.add_argument("--lines", type=int, default=400)
    p.add_argument("--radius", type=float, default=1.5)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_monotonicity)

    p = subs.add_parser("scaling-limit",
                        help="classify the blow-down of an entire graph")
    p.add_argument("--profile", required=True,
                   help="non-increasing ruling slope profile")
    p.add_argument("--t-grid", default=(2.0, 4.0, 8.0, 16.0))
    p.add_argument("--window", type=float, default=1.0e3)
    _add_common(p)
    p.set_defaults(func=_cmd_scaling_limit)

    p = subs.add_parser("sigma-rho",
                        help="equal-area spanning surface of a sweep profile")
    p.add_argument("--rho", required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--check-chords", type=int, default=0,
                   help="sample this many interior chord pairs")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_sigma_rho)

    p = subs.add_parser("competitor",
                        help="compare spanning competitors with the broken "
                             "plane")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--z-cap", type=float, default=None)
    p.add_argument("--z-floor", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_competitor)

    p = subs.add_parser("export-obj", help="write a surface mesh as .obj")
    _add_surface(p, "export-obj")
    p.add_argument("--res", type=int, required=True)
    p.add_argument("--x-res", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_export_obj)

    p = subs.add_parser("calibrate-lines",
                        help="check the cubic scaling of the line measure")
    p.add_argument("--r1", type=float, default=1.0)
    p.add_argument("--r2", type=float, default=2.0)
    p.add_argument("--lines", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-z", type=float, default=3.0)
    _add_common(p)
    p.set_defaults(func=_cmd_calibrate_lines)

    return parser


#: A value that starts with a minus sign (``--window -2,2``, ``--z-cap -1e-3``,
#: ``--u -inf``) is merged into ``--flag=value`` form so argparse does not
#: mistake it for an option.
_NEGATIVE_VALUE = re.compile(r"-(?:[\d.]|inf|nan)", re.IGNORECASE)


def _merge_negative_values(argv: list) -> list:
    merged = []
    for token in argv:
        if (merged and merged[-1].startswith("--") and "=" not in merged[-1]
                and _NEGATIVE_VALUE.match(token)):
            merged[-1] += "=" + token
        else:
            merged.append(token)
    return merged


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    argv = _merge_negative_values(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else int(code)
    args.argv = argv
    try:
        _check_domains(args)
        _read_surface_flags(args)
        # a floating-point fault is a numeric failure, not a stderr warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return int(args.func(args))
    except (QuadratureError, SolverError, CalibrationError,
            DegenerateMeshError, ArithmeticError, RuntimeWarning) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ProfileSpecError, ProfileError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
