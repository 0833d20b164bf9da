"""Command-line front end.

Subcommands: classify, voronoi, theta, embed, surface, series, verify; only
``verify`` imports the `verify` suite, on demand.  Input is a JSON config file
whose ``gram`` entry is a 2x2 array of rational strings ("p/q" or "n"); JSON
output is deterministic (sorted keys, exact rational strings, no timestamps).
Only the OFF mesh export approximates, at a configurable number of decimals.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 internal
error.  Exit 2 covers an argument argparse rejects (an ``ArgumentError``), a
failure while reading the config into a surface (`main`'s ``with _reading()``
block) or the command's own arguments (its block) and the typed input errors of
`errors` (`errors.InputError`, e.g. a product-type surface given to
``surface``).  Any other exception from the computation exits 3: two
independent computations disagreed, or a bug.  Errors emit one JSON object
``{"error": {"type", "stage", "message"}}`` on stderr, where the stage is the
subcommand (``args`` if it is missing or unknown); never a traceback.

An input rational with more than `_MAX_INPUT_DIGITS` digits in its numerator
or denominator is an input error, so that every printed number can print.
``series`` rejects a cutoff above `MAX_SERIES_CUTOFF`, whether given by
``--cutoff`` or computed from the point, and ``surface --out off`` a
``--precision`` outside [1, `MAX_OFF_PRECISION`], and ``verify`` a sample
count outside [1, `MAX_VERIFY_SAMPLES`], given by ``--samples`` or by the
config's ``samples``, as input errors.
A ``--point`` value may start with a minus, given either as
``--point -1/2,0`` or as ``--point=-1/2,0``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import kummer, nonarch
from .errors import InputError
from .exact import Mat2, Vec2, to_fraction
from .lattice import (
    PrincipallyPolarizedSurface,
    classify,
    lagrange_reduce,
    make_surface,
    voronoi_cell,
)
from .theta import ThetaCharacteristic, theta_eval

# What reading a config or an argument raises on bad input;
# json.JSONDecodeError is a ValueError.
READ_ERRORS = (ValueError, TypeError, KeyError, OSError)

# The most digits of an input rational's numerator or denominator.  With each
# below H = 10^300, the integer Gram and its denominator are below H^3, and
# every printed numerator and denominator below 128 H^10: a theta value at a
# point below 20 H^8, a Voronoi vertex (a 2x2 integer solve) below 16 H^10, the
# quartic's values there below 128 H^10.  That is under Python's 4300-digit
# limit on printing an integer (measured: at most 5 * 300 digits), also with
# OFF's 1000 decimals.  An exponent is checked first: Fraction builds 10^exp.
_MAX_INPUT_DIGITS = 300
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)

# The largest series cutoff `series` accepts.  A build costs O(1); an
# evaluation O(1) memory, and O(cutoff) time only when the box binds (a point
# far outside it), as the walk prunes the other rows.  At this limit, box
# binding (hex, char 11, point (10^6, -10^6)), the command takes 0.21-0.29 s
# and 16 MB peak RSS on a 2-vCPU x86-64 machine with Python 3.11.
MAX_SERIES_CUTOFF = 10**5

# The largest sample count `verify` accepts.  A report's work is linear in the
# count; at this limit the hexagonal example (seed 7) takes 5.9-6.3 s and
# 19 MB peak RSS through the CLI on a 2-vCPU x86-64 machine with Python 3.11.
MAX_VERIFY_SAMPLES = 10**4

# The most OFF decimal digits `surface` accepts.  Python refuses to print an
# integer of more than 4300 digits, and a rounded coordinate is printed as
# one, so the bound stays well below that.
MAX_OFF_PRECISION = 1000


class _BadInput(Exception):
    """Carries an exception raised while reading the inputs."""

    def __init__(self, exc: Exception):
        super().__init__(exc)
        self.exc = exc


@contextmanager
def _reading():
    """Mark a command's input reading: what fails in it exits 2."""
    try:
        yield
    except READ_ERRORS as exc:
        raise _BadInput(exc) from exc


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _emit_error(exc: Exception, stage: str) -> None:
    obj = {"error": {"type": type(exc).__name__, "stage": stage, "message": str(exc)}}
    sys.stderr.write(json.dumps(obj, sort_keys=True) + "\n")


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict) or "gram" not in config:
        raise ValueError("config must be a JSON object with a 'gram' entry")
    return config


def _rational(raw) -> Fraction:
    """An exact input rational of at most `_MAX_INPUT_DIGITS` digits up and down."""
    exponent = _EXPONENT.search(raw) if isinstance(raw, str) else None
    if exponent is None or abs(int(exponent[1])) <= _MAX_INPUT_DIGITS + len(raw):
        value = to_fraction(raw)
        if max(abs(value.numerator), value.denominator) < 10**_MAX_INPUT_DIGITS:
            return value
    raise ValueError(f"a rational input has more than {_MAX_INPUT_DIGITS} digits")


def _parse_gram(raw) -> Mat2:
    if (
        not isinstance(raw, list)
        or len(raw) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in raw)
    ):
        raise ValueError("'gram' must be a 2x2 array")
    entries = []
    for row in raw:
        for cell in row:
            if isinstance(cell, float):
                raise ValueError("gram entries must be exact: use strings like '1/2'")
            entries.append(_rational(cell))
    return Mat2(*entries)


def _int_setting(args, config: dict, key: str, default: int) -> int:
    """Option `key` if given, else the config's JSON integer or integer string."""
    value = getattr(args, key)
    if value is None:
        value = config.get(key, default)
        if isinstance(value, (bool, float)):  # int() would truncate or overflow
            raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def _within(name: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise ValueError(f"{name} {value} is outside [{lo}, {hi}]")


def _parse_point(text: str) -> Vec2:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"point must be 'x1,x2', got {text!r}")
    return Vec2(_rational(parts[0]), _rational(parts[1]))


def _vec_json(v) -> list[str]:
    return [str(c) for c in v.as_tuple()]


def cmd_classify(args, config: dict, surface: PrincipallyPolarizedSurface) -> int:
    rb = lagrange_reduce(surface)
    _emit(
        {
            "class": classify(surface).value,
            "reduced_basis": {"u": _vec_json(rb.u), "v": _vec_json(rb.v)},
            "norms": {
                "uu": str(rb.norms[0]),
                "vv": str(rb.norms[1]),
                "uv": str(rb.norms[2]),
            },
        }
    )
    return 0


def cmd_voronoi(args, config: dict, surface: PrincipallyPolarizedSurface) -> int:
    cell = voronoi_cell(surface)
    _emit(
        {
            "kind": cell.kind.value,
            "relevant_vectors": [_vec_json(r) for r in cell.relevant_vectors],
            "vertices": [_vec_json(m) for m in cell.vertices],
        }
    )
    return 0


def cmd_theta(args, config: dict, surface: PrincipallyPolarizedSurface) -> int:
    with _reading():
        char = ThetaCharacteristic.parse(args.char)
        point = _parse_point(args.point)
    tv = theta_eval(surface, char, point)
    _emit(
        {
            "char": str(char),
            "point": _vec_json(point),
            "value": str(tv.value),
            "minimizer": _vec_json(tv.minimizer),
        }
    )
    return 0


def cmd_embed(args, config: dict, surface: PrincipallyPolarizedSurface) -> int:
    with _reading():
        point = _parse_point(args.point)
    _emit(
        {
            "point": _vec_json(point),
            "psi": _vec_json(kummer.psi_eval(surface, point)),
        }
    )
    return 0


def cmd_surface(args, config: dict, surface: PrincipallyPolarizedSurface) -> int:
    with _reading():
        if args.out == "off":
            _within("precision", args.precision, 1, MAX_OFF_PRECISION)
    quartic = kummer.build_quartic(surface)
    if args.out == "json":
        faces = [
            {
                "normal": list(face.normal),
                "offset": str(face.offset),
                "vertices": list(face.vertex_ids),
                "cells": list(face.source_cells),
            }
            for face in quartic.faces
        ]
        _emit(
            {
                "vertices": {
                    label: _vec_json(v)
                    for label, v in zip(kummer.VERTEX_LABELS, quartic.vertices)
                },
                "faces": faces,
                "theta_constants": [str(t) for t in quartic.theta_constants],
            }
        )
        return 0
    sys.stdout.write(kummer.quartic_off(quartic, args.precision))
    return 0


def cmd_series(args, config: dict, surface: PrincipallyPolarizedSurface) -> int:
    with _reading():
        char = ThetaCharacteristic.parse(args.char)
        point = _parse_point(args.point)
    cutoff = args.cutoff
    if cutoff is None:
        cutoff = nonarch.safe_cutoff(surface, char, point.sup_norm())
    with _reading():  # the cutoff is an argument, given or derived from the point
        _within("cutoff", cutoff, 0, MAX_SERIES_CUTOFF)
    series = nonarch.build_series(surface, char, cutoff)
    value = nonarch.tropicalize_series(series, point)
    _emit(
        {
            "char": str(char),
            "point": _vec_json(point),
            "cutoff": cutoff,
            "terms": series.n_terms,
            "constant_shift": str(series.constant_shift),
            "value": str(value),
        }
    )
    return 0


def cmd_verify(args, config: dict, surface: PrincipallyPolarizedSurface) -> int:
    from . import verify  # here, not at the top: the other commands never need it
    with _reading():
        seed = _int_setting(args, config, "seed", 0)
        samples = _int_setting(args, config, "samples", 200)
        _within("samples", samples, 1, MAX_VERIFY_SAMPLES)

    def progress(check):
        sys.stderr.write(
            f"[{check.status:4s}] {check.name} "
            f"({check.cases} cases, {check.elapsed * 1000:.1f} ms)\n"
        )
        sys.stderr.write(check.traceback or "")

    report = verify.run_verification(
        surface, seed=seed, samples=samples, progress=progress
    )
    _emit(report.to_json_dict())
    return 0 if report.passed else 1


class _ArgumentParser(argparse.ArgumentParser):
    """Raises argparse's errors (its subparsers' too) as input errors."""

    def error(self, message):
        raise _BadInput(argparse.ArgumentError(None, message))


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="tropical-kummer",
        description="Exact computations on tropical abelian surfaces and "
        "their Kummer quartics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="surface class and reduced basis")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("voronoi", help="Voronoi cell kind, relevant vectors, vertices")
    p.add_argument("file")
    p.set_defaults(func=cmd_voronoi)

    p = sub.add_parser("theta", help="evaluate one theta function")
    p.add_argument("file")
    p.add_argument("--char", required=True, help="two bits, e.g. 10")
    p.add_argument("--point", required=True, help="exact coordinates 'x1,x2'")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("embed", help="theta embedding of a point")
    p.add_argument("file")
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("surface", help="Kummer quartic vertices and faces")
    p.add_argument("file")
    p.add_argument("--out", choices=("json", "off"), default="json")
    p.add_argument("--precision", type=int, default=12, help="OFF decimal digits")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("series", help="tropicalized truncated theta series")
    p.add_argument("file")
    p.add_argument("--char", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--cutoff", type=int, default=None)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify", help="run the seeded verification suite")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value with a leading minus (`--point -1/2,0`) for an
    # option, so each `--point` is joined to the token after it.
    k = 0
    while k < len(argv) - 1:
        if argv[k] == "--point":
            argv[k : k + 2] = ["--point=" + argv[k + 1]]
        k += 1
    args = argparse.Namespace()  # `command` is set once the subcommand is read
    try:
        build_parser().parse_args(argv, args)
        with _reading():
            config = _load_config(args.file)
            surface = make_surface(_parse_gram(config["gram"]))
        return args.func(args, config, surface)
    except _BadInput as bad:
        _emit_error(bad.exc, args.command or "args")
        return 2
    except InputError as exc:
        _emit_error(exc, args.command)
        return 2
    except Exception as exc:  # internal: an inconsistency or a bug, not bad input
        _emit_error(exc, args.command)
        return 3


if __name__ == "__main__":
    sys.exit(main())
