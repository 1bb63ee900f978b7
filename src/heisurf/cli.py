"""Command-line front end: one verdict line per run, artifacts on disk.

Every subcommand's handler returns (verdict, detail, payload), and a CSV
text where it has one.  One function, `_report`, takes what it returns:
it writes the CSV and the payload, as JSON with the command and argv
added, into the output directory, prints the verdict line
``<command>: PASS|FAIL|OK <detail>`` (OK when the verdict is None), and
picks the exit code.  ``export-obj`` writes its ``.obj`` itself and no
JSON.  A payload that holds a NaN, or an infinity on a run whose verdict is
not false, is a numeric failure, raised before anything is written; a
failed verdict's witness interval may be unbounded.  The exit codes:

    0   verdict true / computation succeeded
    1   verdict false (the checked property fails)
    2   usage error (bad flags, malformed profile spec, bad preconditions)
    3   numeric failure (no quadrature convergence, a `SolverError`, a
        floating-point fault, a degenerate mesh, too few calibration lines)
        or out of memory (a `MemoryError`, say from a large size flag)

A numeric failure is an `ArithmeticError` (every numeric error class of the
package subclasses it) or a floating-point `RuntimeWarning`.  Each handler
imports the modules it uses when it first runs.

Two tables decide which flags a run may take: `_SURFACES` says which surface
flags each (command, ``--surface``) pair reads, and `_DOMAINS` holds the
domain of each numeric flag.  Both are checked once, before any handler.

The output directory comes from ``--output-dir``, the ``HEISURF_OUTPUT_DIR``
environment variable, or the current directory, in that order.  Stochastic
commands take ``--seed``; identical arguments and seed reproduce the output
files byte for byte.

`main` may be called repeatedly in one process: it builds its parser on the
first call and reuses it on every later one.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import re
import shlex
import sys
import warnings
from typing import Any, Optional, Sequence

from .profilespec import ProfileSpec, parse_profile
from .reports import atomic_write_text, dump_csv, dump_json, fmt17
from .strips import (SLOPE_RULES, broken_plane, require_pwl,
                     slope_rule_breaks, strip_surface)

__all__ = ["main", "build_parser", "OUTPUT_DIR_ENV",
           "EXIT_TRUE", "EXIT_FALSE", "EXIT_USAGE", "EXIT_NUMERIC"]

OUTPUT_DIR_ENV = "HEISURF_OUTPUT_DIR"

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


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
    "z_cap": (math.isfinite, "a finite number"),
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
    from .families import (build_competitor, sigma_rho_membership,
                           sigma_rho_surface)
    if args.surface == "competitor":
        return build_competitor(args.competitor_kind, args.u)
    if args.command == "monotonicity":
        return sigma_rho_membership(args.rho, args.window)
    return sigma_rho_surface(args.rho, args.window)


# ---------------------------------------------------------------------------
# the one output path


def _outdir(args) -> str:
    return args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "."


def _report(args, verdict: Optional[bool], detail: str,
            payload: Optional[dict], csv: Optional[str] = None) -> int:
    """Write what a handler returned, print its verdict line and return its
    exit code; a payload that may not be written is an `ArithmeticError`."""
    failed = verdict is not None and not verdict
    base = os.path.join(_outdir(args), args.out or args.command)
    if payload is not None:
        text, bad = dump_json({"command": args.command,
                               "argv": ["heisurf", *args.argv], **payload})
        if any(math.isnan(value) for _, value in bad) or (bad and not failed):
            key, value = min(bad, key=lambda hit: not math.isnan(hit[1]))
            raise ArithmeticError(f"{key} is {fmt17(value)}, not finite")
    word = "OK" if verdict is None else "FAIL" if failed else "PASS"
    line = f"{args.command}: {word} {detail}"
    if csv is not None:
        path = atomic_write_text(base + ".csv", csv)
        line += f" csv={os.path.basename(path)}"
    if payload is not None:
        atomic_write_text(base + ".json", text)
    print(line)
    return EXIT_FALSE if failed else EXIT_TRUE


def _build_profile(text: str) -> tuple[ProfileSpec, Any]:
    spec = parse_profile(text)
    return spec, spec.build()


# ---------------------------------------------------------------------------
# verdict commands on profiles

#: The rule each slope-verdict command records, by (command, chart).
_RULES = {
    ("check-strip", "sigma"): "sigma slopes must lie in [-2, 2)",
    ("check-strip", "alpha"):
        "alpha slopes must be >= -1 (sigma slopes in [-2, 2))",
    ("check-minimal", "alpha"): "area minimality needs all alpha slopes >= -1",
    ("check-minimal", "sigma"): "area minimality needs the strip graphical: "
                                "sigma slopes in [-2, 2)",
}


def _cmd_check(args):
    """check-strip and check-minimal: ``--profile`` under its chart's slope
    rule.  A failing profile's witness is its lowest slope where that is
    too low, else its highest slope, on the interval where the profile
    takes it (`Profile.where_slope`).  The alpha chart takes only a
    piecewise-linear profile, as the alpha<->sigma transform does."""
    spec, profile = _build_profile(args.profile)
    if args.kind == "alpha":
        require_pwl(profile)
    lo, hi = profile.slope_bounds()
    too_low, too_high = slope_rule_breaks(lo, hi, args.kind)
    ok = not (too_low or too_high)
    detail = f"profile={spec.spec_string()} slopes=[{fmt17(lo)},{fmt17(hi)}]"
    payload = {"profile": spec.to_json(), "kind": args.kind, "verdict": ok,
               "slope_bounds": [lo, hi], "witness": None,
               "rule": _RULES[args.command, args.kind]}
    if args.command == "check-minimal":
        payload["threshold"] = SLOPE_RULES[args.kind][0]
    if not ok:
        slope = lo if too_low else hi
        a, b = profile.where_slope(slope)
        payload["witness"] = {"slope": slope, "interval": [a, b]}
        detail += f" witness slope {fmt17(slope)} on [{fmt17(a)},{fmt17(b)}]"
    return ok, detail, payload


# ---------------------------------------------------------------------------
# scalar computations


def _cmd_scalar(args):
    from .families import (broken_plane_area, broken_plane_energy,
                           sigma_rho_area)
    from .surfaces import strip_patch
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
    return (None, f"surface={args.surface} value={fmt17(value)}",
            {"surface": args.surface, "value": value, **args.inputs})


# ---------------------------------------------------------------------------
# experiments


def _cmd_second_variation(args):
    from .variation import second_variation_experiment
    alpha_spec, alpha = _build_profile(args.alpha)
    tau_spec, tau = _build_profile(args.tau)
    result = second_variation_experiment(require_pwl(alpha), require_pwl(tau),
                                         window=args.window,
                                         lambdas=args.lambdas)
    # plateaued sweeps carry an odd |lambda|^3 residual, so the fit only
    # reaches a few percent of the analytic value; 5% covers both regimes
    ok = bool(result.consistent(rel_tol=0.05))
    rows = [(lam, delta, lam * lam * result.second_variation)
            for lam, delta in zip(result.lambdas, result.delta_areas)]
    payload = {
        "alpha": alpha_spec.to_json(), "tau": tau_spec.to_json(),
        "window": list(result.window), "lambdas": list(result.lambdas),
        "delta_areas": list(result.delta_areas),
        "second_variation": result.second_variation,
        "quadratic_fit": result.quadratic_fit,
        "quartic_fit": result.quartic_fit,
        "residual_order": result.residual_order, "consistent": ok}
    detail = (f"II={fmt17(result.second_variation)} "
              f"fitted-c={fmt17(result.quadratic_fit)} "
              f"order={result.residual_order:.2f}")
    return (ok, detail, payload,
            dump_csv(("lambda", "delta_area", "quadratic_model"), rows))


def _cmd_monotonicity(args):
    from .lines import monotonicity_check
    report = monotonicity_check(_build_surface(args), radius=args.radius,
                                n=args.lines, seed=args.seed)
    ok = bool(report.passed)
    violations = [{"theta": line.theta, "v": line.v, "w": line.w,
                   "roots": list(roots)}
                  for line, roots in report.violations]
    payload = {
        "surface": args.surface, "n_lines": report.n_lines,
        "seed": report.seed, "radius": report.radius,
        "histogram": {str(k): v for k, v in report.histogram.items()},
        "degenerate_lines": report.degenerate_lines,
        "count_method": report.count_method, "violations": violations,
        "max_crossings": report.max_crossings, "verdict": ok, **args.inputs}
    return ok, (f"surface={args.surface} lines={report.n_lines} "
                f"max-crossings={report.max_crossings} "
                f"violations={len(report.violations)}"), payload


def _finite_or_none(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def _cmd_scaling_limit(args):
    from .families import RuledEntireGraph, scaling_limit
    spec, profile = _build_profile(args.profile)
    graph = RuledEntireGraph(profile)
    report = scaling_limit(graph, t_grid=args.t_grid, window=args.window)
    ok = bool((not report.errors) or report.converged())
    # a vertical-plane limit has infinite opening and tail slopes; `kind`
    # says so, and the payload writes them as null
    payload = {
        "profile": spec.to_json(), "kind": report.kind,
        "slope_neg_limit": _finite_or_none(report.slope_neg_limit),
        "slope_pos_limit": _finite_or_none(report.slope_pos_limit),
        "theta": report.theta, "u": _finite_or_none(report.u),
        "t_grid": list(report.t_grid), "errors": list(report.errors),
        "converged": ok}
    return ok, (f"kind={report.kind} theta={fmt17(report.theta)} "
                f"u={fmt17(report.u)}"), payload


def _cmd_sigma_rho(args):
    from .families import (chord_obstruction_check, sigma_rho_area,
                           sigma_rho_area_quadrature, sigma_rho_surface)
    spec, rho = _build_profile(args.rho)
    a, b = args.window
    closed = sigma_rho_area(rho, a, b)
    quad = sigma_rho_area_quadrature(rho, a, b)
    gap = abs(closed - quad) / max(abs(closed), 1e-300)
    surface = sigma_rho_surface(rho, (a, b))
    residual = surface.horizontality_residual()
    ok = bool(gap <= 1e-6 and residual <= 1e-9)
    detail = f"area={fmt17(closed)} quad-gap={gap:.3e}"
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
        ok = bool(ok and rep.ok and rep.corner_offset <= 1e-9)
        detail += " chords=" + ("clear" if rep.ok else "violated")
    return ok, detail, {
        "rho": spec.to_json(), "window": [a, b], "area": closed,
        "area_quadrature": quad, "relative_gap": gap,
        "horizontality_residual": residual, "obstruction": obstruction,
        "verdict": ok}


def _cmd_competitor(args):
    from .families import competitor_compare
    report = competitor_compare(args.u, z_cap=args.z_cap)
    ok = bool(report.area_margin > 0.0)
    totals = {
        "area_competitor": report.area_competitor,
        "area_reference": report.area_reference,
        "area_margin": report.area_margin,
        "energy_competitor": report.energy_competitor,
        "energy_reference": report.energy_reference,
        "energy_margin": report.energy_margin,
    }
    rows = [*totals.items(),
            *((f"area_piece_{k}", v) for k, v in report.area_pieces.items()),
            *((f"energy_piece_{k}", v)
              for k, v in report.energy_pieces.items())]
    payload = {
        "u": report.u, "z_cap": report.z_cap,
        **totals, "area_pieces": dict(report.area_pieces),
        "energy_pieces": dict(report.energy_pieces), "verdict": ok}
    detail = (f"u={fmt17(report.u)} "
              f"area-margin={fmt17(report.area_margin)} "
              f"energy-margin={fmt17(report.energy_margin)}")
    return ok, detail, payload, dump_csv(("quantity", "value"), rows)


def _cmd_calibrate_lines(args):
    from .lines import calibrate_ratio
    result = calibrate_ratio(args.r1, args.r2, n=args.lines, seed=args.seed)
    ok = bool(abs(result.zscore) <= args.max_z)
    payload = {
        "r1": args.r1, "r2": args.r2, "n": args.lines, "seed": args.seed,
        "ratio": result.ratio, "se": result.se, "expected": result.expected,
        "zscore": result.zscore, "max_z": args.max_z, "verdict": ok}
    return ok, (f"ratio={fmt17(result.ratio)} "
                f"expected={fmt17(result.expected)} "
                f"z={result.zscore:+.2f}"), payload


# ---------------------------------------------------------------------------
# mesh export


def _cmd_export_obj(args):
    from .meshes import (broken_plane_mesh, competitor_mesh, mesh_from_ruled,
                         strip_mesh, write_obj)
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

    path = os.path.join(_outdir(args), (args.out or args.surface) + ".obj")
    write_obj(mesh, path)
    return None, (f"surface={args.surface} vertices={mesh.n_vertices} "
                  f"faces={mesh.n_faces} file={os.path.basename(path)}"), None


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``heisurf`` parser, built on the first call and shared after it.

    Every call returns the same parser, so it must not be mutated.  Reuse
    is safe because `parse_args` returns a fresh namespace each time, every
    default is an immutable constant, and ``--output-dir`` falls back to
    ``HEISURF_OUTPUT_DIR`` when a command runs, not here.
    """
    parser = _Parser(
        prog="heisurf",
        description="Minimal-surface experiments in the Heisenberg group.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check-strip",
                        help="is the profile's ruled surface a graph?")
    p.add_argument("--profile", required=True)
    p.add_argument("--kind", choices=("sigma", "alpha"), default="sigma")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("check-minimal",
                        help="is the profile's surface area-minimizing?")
    p.add_argument("--profile", required=True)
    p.add_argument("--kind", choices=("alpha", "sigma"), default="alpha")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

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
    """Run one ``heisurf`` command and return its exit code.

    ``argv`` defaults to ``sys.argv[1:]``.  `main` may be called repeatedly
    in one process; the parser is built on the first call (`build_parser`).
    """
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
            return _report(args, *args.func(args))
    except (ArithmeticError, RuntimeWarning) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("out of memory: lower --lines, --res or --x-res",
              file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
