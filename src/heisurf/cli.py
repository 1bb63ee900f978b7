"""Command-line front end: one verdict line per run, artifacts on disk.

Every subcommand's handler returns (verdict, detail, payload), and a CSV
text where it has one.  One function, `_report`, takes what it returns:
it writes the CSV and the payload, as JSON with the command and argv
added, into the output directory, prints the verdict line
``<command>: PASS|FAIL|OK <detail>`` (OK when the verdict is None), and
picks the exit code.  ``export-obj`` writes its ``.obj`` itself and no
JSON.  A handler's payload is its report's fields, the inputs the run read
(``args.inputs``) and what only the command knows, such as its verdict.  A
payload that holds a NaN or an infinity is a numeric failure, raised before
anything is written; an unbounded end is written as null.  The exit codes:

    0   verdict true / computation succeeded
    1   verdict false (the checked property fails)
    2   usage error (bad flags, malformed profile spec, bad preconditions)
    3   numeric failure (no quadrature convergence, a `SolverError`, a
        floating-point fault, a degenerate mesh, too few calibration lines)
        or out of memory (a `MemoryError`, say from a large size flag)

A numeric failure is an `ArithmeticError` (every numeric error class of the
package subclasses it) or a floating-point `RuntimeWarning`.  Each handler
imports the modules it uses when it first runs.

Each flag's argparse settings are declared once, in `_FLAGS`.  `_COMMANDS`
gives each command's help, handler and flags, and `_SURFACES` the surface
flags of each (command, ``--surface``) pair, each flag marked required,
optional or with its default; `_DOMAINS` holds the domain of each numeric
flag.  One pass, `_read_flags`, reads them all before any handler: it
refuses a surface flag the pair does not read, requires what the run needs,
fills in defaults, checks domains and builds every profile.

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
from typing import Mapping, Optional, Sequence

from .profilespec import parse_profile
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

#: argparse settings of every flag, keyed by dest, in help order; --surface
#: takes its choices from `_SURFACES`.  Every flag defaults to None, so that
#: a given flag can be told from an omitted one.
_FLAGS = {
    "surface": {}, "alpha": {}, "tau": {},
    "profile": {"help": "ruling slope profile; non-increasing for "
                        "scaling-limit"},
    "kind": {"choices": ("sigma", "alpha")}, "rho": {}, "u": {"type": float},
    "competitor_kind": {"choices": ("minimal", "harmonic")},
    "z_cap": {"type": float}, "t_grid": {},
    "window": {"help": "height window 'lo,hi'; for scaling-limit, the "
                       "height bound"},
    "x_max": {"type": float}, "lambdas": {}, "res": {"type": int},
    "x_res": {"type": int}, "r1": {"type": float}, "r2": {"type": float},
    "lines": {"type": int}, "radius": {"type": float},
    "check_chords": {"type": int,
                     "help": "sample this many interior chord pairs"},
    "seed": {"type": int}, "max_z": {"type": float},
    "output_dir": {"help": "directory for artifacts (default: "
                           f"${OUTPUT_DIR_ENV} or the current directory)"},
    "out": {"help": "base name for artifact files "
                    "(default: the subcommand name)"},
}

#: The surface flags each (command, --surface) pair reads.  A bare flag is
#: required, a trailing "?" marks one that may be omitted, and "=text" one
#: that stands for its default text when omitted.  Any other surface flag
#: is refused.
_SURFACES = {
    **{(command, surface): flags
       for command in ("area", "energy")
       for surface, flags in (("strip", "profile kind=sigma window x_max=1"),
                              ("broken-plane", "u z_cap"),
                              ("sigma-rho", "rho window"))},
    ("monotonicity", "strip"): "profile kind=sigma x_max=1",
    ("monotonicity", "broken-plane"): "u x_max=1",
    ("monotonicity", "sigma-rho"): "rho window",
    ("export-obj", "strip"): "profile kind=sigma window x_max=1",
    ("export-obj", "broken-plane"): "u window x_max=1",
    ("export-obj", "sigma-rho"): "rho window",
    ("export-obj", "competitor"): "u competitor_kind=minimal z_cap?",
}

#: The flags whose value is a profile spec, built before any handler runs.
_PROFILES = ("profile", "rho", "alpha", "tau")

#: The flags every command reads.
_OUTPUT = " output_dir? out?"

_NONNEGATIVE = (lambda x: math.isfinite(x) and x >= 0.0,
                "a finite number >= 0")
_POSITIVE = (lambda x: math.isfinite(x) and x > 0.0, "a finite number > 0")

#: The domain of each numeric flag: a test and what the error says the
#: value must be.  A (command, flag) key overrides the flag's domain for one
#: command, and a (surface, flag) key for one --surface; the competitor's
#: u is positive both as a command and as a surface.  Comma-separated
#: values are tested as tuples of floats.
_DOMAINS = {
    **dict.fromkeys(("u", "max_z"), _NONNEGATIVE),
    ("competitor", "u"): _POSITIVE,
    **dict.fromkeys(("x_max", "radius", "r1", "r2"), _POSITIVE),
    "z_cap": (math.isfinite, "a finite number"),
    **dict.fromkeys((("area", "z_cap"), ("energy", "z_cap")), _NONNEGATIVE),
    "window": (lambda w: (len(w) == 2 and all(map(math.isfinite, w))
                          and w[0] < w[1]), "two finite numbers lo < hi"),
    ("scaling-limit", "window"): (lambda w: len(w) == 1 and _POSITIVE[0](*w),
                                  _POSITIVE[1]),
    "lambdas": (lambda ls: (len(set(ls)) == len(ls) >= 2
                            and all(_POSITIVE[0](x) for x in ls)),
                "two or more distinct finite numbers > 0"),
    "t_grid": (lambda ts: (all(map(_POSITIVE[0], ts))
                           and all(a < b for a, b in zip(ts, ts[1:]))),
               "finite numbers > 0, strictly increasing"),
    **dict.fromkeys(("lines", "res", "x_res"), (lambda n: n >= 1,
                                                "at least 1")),
    **dict.fromkeys(("check_chords", "seed"), (lambda n: n >= 0,
                                               "at least 0")),
}


def _option(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _read(flags: str) -> dict:
    """dest -> (required, default text) of each flag of a flag list."""
    read = {}
    for word in flags.split():
        name, _, default = word.partition("=")
        dest = name.rstrip("?")
        read[dest] = (dest == name and not default, default or None)
    return read


def _read_flags(args) -> None:
    """The one pass over a run's flags, before any handler: refuse a surface
    flag the run's --surface does not read, require the flags it cannot do
    without, fill in defaults, test each value against its domain
    (comma-separated values become tuples of floats) and build each profile,
    whose spec goes to ``args.specs``.  ``args.inputs`` keeps, as the
    payload records them, the JSON of every profile and, on a --surface
    run, the surface and the surface flags it read."""
    command = where = args.command
    surface = getattr(args, "surface", None)
    pair = {}
    if surface is not None:
        where += f" --surface {surface}"
        pair = _read("surface " + _SURFACES[command, surface])
    read = {**_read(_COMMANDS[command][2] + _OUTPUT), **pair}
    args.specs, args.inputs = {}, {}
    for dest in [dest for dest in _FLAGS if hasattr(args, dest)]:
        value = getattr(args, dest)
        if dest not in read and value is not None:
            raise ValueError(f"{_option(dest)} must be omitted with {where}")
        required, default = read.get(dest, (False, None))
        if value is None:
            if required:
                raise ValueError(f"{_option(dest)} is required with {where}")
            if default is None:
                continue
            value = _FLAGS[dest].get("type", str)(default)
        domain = _DOMAINS.get((command, dest), _DOMAINS.get(
            (surface, dest), _DOMAINS.get(dest)))
        if domain is not None:
            test, text = domain
            try:
                parsed = (tuple(float(p) for p in value.split(","))
                          if isinstance(value, str) else value)
                ok = test(parsed)
            except ValueError:
                ok = False
            if not ok:
                raise ValueError(f"{_option(dest)} must be {text}, "
                                 f"got {value!r}")
            value = parsed
        recorded = list(value) if isinstance(value, tuple) else value
        if dest in _PROFILES:
            spec = args.specs[dest] = parse_profile(value)
            value, recorded = spec.build(), spec.to_json()
        if dest in pair or dest in _PROFILES:
            args.inputs[dest] = recorded
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


def _finite_or_none(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def _report(args, verdict: Optional[bool], detail: str,
            payload: Optional[dict], csv: Optional[str] = None) -> int:
    """Write what a handler returned, print its verdict line and return its
    exit code; a payload holding a NaN or an infinity is an
    `ArithmeticError` (`dump_json`)."""
    failed = verdict is not None and not verdict
    base = os.path.join(_outdir(args), args.out or args.command)
    if payload is not None:
        text = dump_json({"command": args.command,
                          "argv": ["heisurf", *args.argv], **payload})
    word = "OK" if verdict is None else "FAIL" if failed else "PASS"
    line = f"{args.command}: {word} {detail}"
    if csv is not None:
        path = atomic_write_text(base + ".csv", csv)
        line += f" csv={os.path.basename(path)}"
    if payload is not None:
        atomic_write_text(base + ".json", text)
    print(line)
    return EXIT_FALSE if failed else EXIT_TRUE


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
    spec, profile = args.specs["profile"], args.profile
    if args.kind == "alpha":
        require_pwl(profile)
    lo, hi = profile.slope_bounds()
    too_low, too_high = slope_rule_breaks(lo, hi, args.kind)
    ok = not (too_low or too_high)
    detail = f"profile={spec.spec_string()} slopes=[{fmt17(lo)},{fmt17(hi)}]"
    payload = {**args.inputs, "kind": args.kind, "verdict": ok,
               "slope_bounds": [lo, hi], "witness": None,
               "rule": _RULES[args.command, args.kind]}
    if args.command == "check-minimal":
        payload["threshold"] = SLOPE_RULES[args.kind][0]
    if not ok:
        slope = lo if too_low else hi
        a, b = profile.where_slope(slope)
        payload["witness"] = {"slope": slope, "interval": [
            _finite_or_none(a), _finite_or_none(b)]}
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
            {"value": value, **args.inputs})


# ---------------------------------------------------------------------------
# experiments


def _cmd_second_variation(args):
    from .variation import second_variation_experiment
    result = second_variation_experiment(require_pwl(args.alpha),
                                         require_pwl(args.tau),
                                         window=args.window,
                                         lambdas=args.lambdas)
    # plateaued sweeps carry an odd |lambda|^3 residual, so the fit only
    # reaches a few percent of the analytic value; 5% covers both regimes
    ok = bool(result.consistent(rel_tol=0.05))
    rows = [(lam, delta, lam * lam * result.second_variation)
            for lam, delta in zip(result.lambdas, result.delta_areas)]
    payload = {**vars(result), **args.inputs, "consistent": ok}
    detail = (f"II={fmt17(result.second_variation)} "
              f"fitted-c={fmt17(result.quadratic_fit)} "
              + ("order=exact" if result.residual_order is None
                 else f"order={result.residual_order:.2f}"))
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
    payload = {**vars(report), **args.inputs, "count_method": "exact",
               "violations": violations,
               "max_crossings": report.max_crossings, "verdict": ok}
    return ok, (f"surface={args.surface} lines={report.n_lines} "
                f"max-crossings={report.max_crossings} "
                f"violations={len(report.violations)}"), payload


def _cmd_scaling_limit(args):
    from .families import RuledEntireGraph, scaling_limit
    report = scaling_limit(RuledEntireGraph(args.profile), t_grid=args.t_grid,
                           window=args.window[0])
    ok = bool((not report.errors) or report.converged())
    # a vertical-plane limit has infinite opening and tail slopes; `kind`
    # says so, and the payload writes them as null
    payload = {**vars(report), **args.inputs, "kind": report.kind,
               "converged": ok}
    for key in ("slope_neg_limit", "slope_pos_limit", "u"):
        payload[key] = _finite_or_none(payload[key])
    return ok, (f"kind={report.kind} theta={fmt17(report.theta)} "
                f"u={fmt17(report.u)}"), payload


def _cmd_sigma_rho(args):
    from .families import (chord_obstruction_check, sigma_rho_area,
                           sigma_rho_area_quadrature, sigma_rho_surface)
    rho = args.rho
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
        obstruction = {**vars(rep), "z_left": z1, "z_right": z2}
        ok = bool(ok and rep.ok and rep.corner_offset <= 1e-9)
        detail += " chords=" + ("clear" if rep.ok else "violated")
    return ok, detail, {
        **args.inputs, "window": [a, b], "area": closed,
        "area_quadrature": quad, "relative_gap": gap,
        "horizontality_residual": residual, "obstruction": obstruction,
        "verdict": ok}


def _cmd_competitor(args):
    from .families import competitor_compare
    report = competitor_compare(args.u, z_cap=args.z_cap)
    ok = bool(report.area_margin > 0.0)
    payload = {**vars(report), "verdict": ok}
    # the CSV: each total, then each piece ("area_pieces" gives the rows
    # "area_piece_<name>")
    rows = []
    for key, value in vars(report).items():
        if isinstance(value, Mapping):
            rows += [(f"{key[:-1]}_{k}", v) for k, v in value.items()]
        elif key not in ("u", "z_cap"):
            rows.append((key, value))
    detail = (f"u={fmt17(report.u)} "
              f"area-margin={fmt17(report.area_margin)} "
              f"energy-margin={fmt17(report.energy_margin)}")
    return ok, detail, payload, dump_csv(("quantity", "value"), rows)


def _cmd_calibrate_lines(args):
    from .lines import calibrate_ratio
    result = calibrate_ratio(args.r1, args.r2, n=args.lines, seed=args.seed)
    ok = bool(abs(result.zscore) <= args.max_z)
    payload = {**vars(result), "r1": args.r1, "r2": args.r2, "n": args.lines,
               "seed": args.seed, "zscore": result.zscore,
               "max_z": args.max_z, "verdict": ok}
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
        from .families import competitor_z_cap
        mesh = competitor_mesh(surface, competitor_z_cap(args.u, args.z_cap),
                               res, x_res, header)

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


#: Each command: its help, its handler and the flags it reads, in the
#: notation of `_SURFACES`.  ``surface`` stands for --surface and every
#: surface flag its choices read; every command also reads `_OUTPUT`.
_COMMANDS = {
    "check-strip": ("is the profile's ruled surface a graph?", _cmd_check,
                    "profile kind=sigma"),
    "check-minimal": ("is the profile's surface area-minimizing?",
                      _cmd_check, "profile kind=alpha"),
    "area": ("horizontal perimeter of a surface", _cmd_scalar, "surface"),
    "energy": ("intrinsic Dirichlet energy", _cmd_scalar, "surface"),
    "second-variation": ("exact deformed areas vs the quadratic model",
                         _cmd_second_variation,
                         "alpha tau window? lambdas=0.02,0.04,0.06,0.08"),
    "monotonicity": ("crossing census over random horizontal lines",
                     _cmd_monotonicity,
                     "surface lines=400 radius=1.5 seed=0"),
    "scaling-limit": ("classify the blow-down of an entire graph",
                      _cmd_scaling_limit, "profile t_grid=2,4,8,16 "
                                          "window=1000"),
    "sigma-rho": ("equal-area spanning surface of a sweep profile",
                  _cmd_sigma_rho, "rho window check_chords=0 seed=0"),
    "competitor": ("compare spanning competitors with the broken plane",
                   _cmd_competitor, "u z_cap?"),
    "export-obj": ("write a surface mesh as .obj", _cmd_export_obj,
                   "surface res x_res?"),
    "calibrate-lines": ("check the cubic scaling of the line measure",
                        _cmd_calibrate_lines,
                        "r1=1 r2=2 lines=200000 seed=0 max_z=3"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``heisurf`` parser, built on the first call and shared after it.

    Every call returns the same parser, so it must not be mutated.  Reuse
    is safe because `parse_args` returns a fresh namespace each time and
    every flag defaults to None: `_read_flags` fills in the defaults, and
    ``--output-dir`` falls back to ``HEISURF_OUTPUT_DIR``, when a command
    runs, not here.
    """
    parser = _Parser(
        prog="heisurf",
        description="Minimal-surface experiments in the Heisenberg group.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, flags) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        pairs = {s: f for (c, s), f in _SURFACES.items() if c == command}
        reads = _read(" ".join([flags, *pairs.values(), _OUTPUT]))
        for dest in filter(reads.__contains__, _FLAGS):
            sub.add_argument(_option(dest), default=None, **(
                {"choices": tuple(pairs)} if dest == "surface"
                else _FLAGS[dest]))
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
        _read_flags(args)
        # a floating-point fault is a numeric failure, not a stderr warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return _report(args, *_COMMANDS[args.command][1](args))
    except (ArithmeticError, RuntimeWarning) as exc:
        # a float ** that overflows says only "(34, 'Numerical result out
        # of range')"
        if isinstance(exc, OverflowError):
            exc = f"floating-point overflow: {exc.args[-1]}"
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
