"""Command-line surface.

Subcommands: energy, norms, certify, estimate, bounds-table, ball, selftest.
Exit codes: 0 success/valid, 1 certificate invalid or inequality check
failed, 2 usage or input error.  All randomness flows from --seed and output
files carry no timestamps, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, acceptance, certificates, discrete_core, experiments, optimizer


class InputError(Exception):
    """Malformed user input; maps to exit code 2."""


# The glibc mallopt settings of the CLI: M_MMAP_THRESHOLD (-3) at 32 MiB,
# glibc's 64-bit ceiling for it, so arrays below that come from the heap and
# larger ones are still unmapped when freed; M_TRIM_THRESHOLD (-1) at 64 MiB,
# twice that, as glibc's own dynamic rule would set it, so up to that much
# freed heap stays with the process.
_MALLOPT_SETTINGS = ((-3, 32 << 20), (-1, 64 << 20))


@functools.cache
def _reuse_freed_pages() -> bool:
    """Ask glibc, once per process, to keep the pages of freed arrays for
    the next ones instead of giving them back to the kernel, which would
    fault them in again on the next call.  True if glibc took the settings;
    False on any other C library, where nothing is changed.  Only cli.main
    asks this: importing energylab leaves the allocator alone."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc "):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):  # no confstr answer, libc or mallopt
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in _MALLOPT_SETTINGS)


# A plain decimal token, of at most 18 digits: np.fromstring converts it
# exactly (a token past int64 it clamps to 2^63 - 1 without a word).
_PLAIN_TOKEN = r"[ \t]*+-?[0-9]{1,18}+[ \t]*+"


def _plain_points(rows: list[str], sep: str):
    """The rows, none of which contains sep, as one (k, d) int64 array when
    each is d plain decimal tokens between commas, else None.  The check is
    one regular expression over the rows joined by sep, and the conversion
    one np.fromstring call."""
    if not rows:
        return None
    d = rows[0].count(",") + 1
    row = f"{_PLAIN_TOKEN}(?:,{_PLAIN_TOKEN})" + ("*" if len(rows) == 1 else f"{{{d - 1}}}")
    if not re.fullmatch(f"{row}(?:{sep}{row})*+", sep.join(rows)):
        return None
    return np.fromstring(",".join(rows), dtype=np.int64, sep=",").reshape(len(rows), d)


def _parse_int_list(text: str, where: str) -> list[int]:
    try:
        return list(map(int, filter(str.strip, text.split(","))))
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from None


def parse_inline_set(text: str) -> discrete_core.LatticeSet:
    """Semicolons separate points, commas separate coordinates.

    A single token without semicolons is read as a 1-dimensional set of
    comma-separated values ("0,1" is the two-point set {0, 1}); append a
    trailing semicolon ("0,1;") to force a single multi-dimensional point.
    """
    if ";" not in text:
        arr = _plain_points([text], ";")
        if arr is None:
            arr = _token_points([("inline set", text)], "inline set")
        return discrete_core._translated_set(arr.reshape(-1, 1))
    points = [t for t in text.split(";") if t.strip() != ""]
    arr = _plain_points(points, ";")
    if arr is None:
        arr = _token_points([(f"inline set, point {i + 1}", tok)
                             for i, tok in enumerate(points)], "inline set")
    return discrete_core._translated_set(arr)


def _point_line(line: str) -> bool:
    """Whether a set file line holds a point: not blank, not a # comment."""
    return bool(line.strip()) and not line.lstrip().startswith("#")


def read_set_file(path: str) -> discrete_core.LatticeSet:
    """One point per line, comma-separated integer coordinates; blank lines
    and # comments are skipped."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read set file {path}: {exc}") from None
    lines = text.splitlines()
    rows = list(filter(_point_line, lines)) if "#" in text or "" in lines else lines
    arr = _plain_points(rows, "\n")
    if arr is None:
        arr = _token_points([(f"{path}, line {lineno}", line)
                             for lineno, line in enumerate(lines, start=1)
                             if _point_line(line)], path)
    return discrete_core._translated_set(arr)


def _token_points(rows, where: str) -> np.ndarray:
    """The points of (label, row) pairs, each row comma-separated integers
    read token by token (an error names its row's label), as a (k, d)
    array: int64, or Python ints past int64."""
    values, dims = [], set()
    for label, row in rows:
        coords = _parse_int_list(row, label)
        values += coords
        dims.add(len(coords))
    if not values:
        raise InputError(f"{where}: no points given")
    if len(dims) != 1:
        raise InputError(f"{where}: inconsistent point dimensions {sorted(dims)}")
    return discrete_core._int_array(values).reshape(-1, dims.pop())


def read_function_file(path: str) -> discrete_core.DiscreteFunction:
    """JSON {offset, values[]}: offset an integer, values an array of
    numbers or decimal strings."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read function file {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}, line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict) or "offset" not in doc or "values" not in doc:
        raise InputError(f"{path}: expected an object with 'offset' and 'values'")
    values = doc["values"]
    # bool is a subclass of int, so the types are compared exactly
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float, str}:
        raise InputError(f"{path}: 'values' must be an array of numbers or numeric strings")
    try:
        vals = list(map(float, values))
    except (ValueError, OverflowError) as exc:
        raise InputError(f"{path}: 'values': {exc}") from None
    try:
        return discrete_core.DiscreteFunction(doc["offset"], vals)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def _emit(text: str, out: str | Path | None) -> None:
    """Every output of the CLI: text and a final newline, to the file out or
    to stdout."""
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _cmd_energy(args) -> int:
    if args.inline is not None:
        lattice = parse_inline_set(args.inline)
    else:
        lattice = read_set_file(args.set)
    _emit(str(discrete_core.energy_of_set(lattice)), args.out)
    return 0


def _cmd_norms(args) -> int:
    f = read_function_file(args.f)
    report = discrete_core.ratio_report(f, args.q)
    if args.format == "json":
        _emit(json.dumps({"q": report.q, "l4hat": report.l4hat, "lq": report.lq,
                          "ratio": report.ratio, "err": report.err}, indent=2), args.out)
    else:
        _emit("\n".join([f"l4hat {report.l4hat!r}", f"lq {report.lq!r}",
                         f"ratio {report.ratio!r}", f"err {report.err!r}"]), args.out)
    return 0 if report.ratio <= 1.0 + report.err else 1


def _cmd_certify(args) -> int:
    if args.construction == "perturbation":
        cert = (certificates.build_perturbation_certificate(args.n) if args.eps is None
                else certificates.build_perturbation_certificate(args.n, args.eps))
    else:
        if args.eps is None:
            raise InputError("certify gaussian requires --eps")
        params = certificates.GaussianScheduleParams.from_n_eps(args.n, args.eps)
        cert = certificates.build_gaussian_certificate(params)
    _emit(certificates.certificate_json(cert), args.out)
    return 0 if cert.valid else 1


def _cmd_estimate(args) -> int:
    est = optimizer.estimate_qn(args.n, tol=args.tol, seed=args.seed,
                                starts=args.starts)
    for p in est.probes:  # the per-probe trace goes to stderr, never into the result
        print(f"probe q={p.q!r} ratio={p.ratio!r} err={p.err:.3e} fired={int(p.fired)} "
              f"start={p.start_id} agreeing={p.agreeing}/{args.starts} iters={p.iterations} "
              f"rounds={p.rounds}",
              file=sys.stderr)
    doc = {
        "n": est.n,
        "q_hat": est.q_hat,
        "t_hat": est.t_hat,
        "empirical_c": est.empirical_c,
        "witness": certificates.certificate_to_dict(est.witness),
    }
    _emit(json.dumps(doc, indent=2), args.out)
    return 0


def _cmd_bounds_table(args) -> int:
    if args.n_min < 2 or args.n_max < args.n_min:
        raise InputError(f"need 2 <= n-min <= n-max, got [{args.n_min}, {args.n_max}]")
    rows = experiments.bounds_table(range(args.n_min, args.n_max + 1), eps=args.eps,
                                    with_optimizer=args.with_optimizer, seed=args.seed)
    _emit(experiments.results_document(rows, "bounds", args.format), args.out)
    if args.out:
        config = {"command": "bounds-table", "n_min": args.n_min, "n_max": args.n_max,
                  "eps": args.eps, "with_optimizer": args.with_optimizer,
                  "format": args.format}
        _emit(experiments.manifest_document(config, args.seed, __version__),
              args.out + ".manifest.json")
    return 0


def _cmd_ball(args) -> int:
    center = None
    if args.center:
        try:
            center = tuple(float(c) for c in args.center.split(","))
        except ValueError as exc:
            raise InputError(f"--center: {exc}") from None
    rows = experiments.ball_energy_experiment([args.d], [args.radius], center=center)
    _emit(experiments.results_document(rows, "ball", args.format), args.out)
    return 0


def _cmd_selftest(args) -> int:
    results = acceptance.run_all(seed=args.seed)
    for result in results:
        print(result.line())
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _emit(acceptance.report_document(results, args.seed), out_dir / "selftest_results.json")
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by later ones:
    parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="energylab",
        description="Exact additive energies, L4 Fourier-norm ratios, and "
                    "certified lower bounds for the energy exponent t_n.")
    parser.add_argument("--version", action="version", version=f"energylab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("energy", help="exact additive energy of a lattice set")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--set", help="file with one point per line, comma-separated coordinates")
    group.add_argument("--inline", help="inline set: semicolons between points, commas between coordinates")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("norms", help="l4hat/lq ratio report for a function file")
    p.add_argument("--f", required=True, help="JSON function file {offset, values[]}")
    p.add_argument("--q", required=True, type=float)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_norms)

    p = sub.add_parser("certify", help="build and validate a lower-bound certificate")
    p.add_argument("construction", choices=("perturbation", "gaussian"))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--eps", type=float, default=None,
                   help="perturbation: default 0.5; gaussian: required")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("estimate", help="bisection estimate of q_n and t_n = 4/q_n")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int, default=16)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("bounds-table", help="per-n table of lower bounds and targets")
    p.add_argument("--n-min", required=True, type=int)
    p.add_argument("--n-max", required=True, type=int)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--with-optimizer", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds_table)

    p = sub.add_parser("ball", help="lattice points in a d-ball and their energy")
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--radius", required=True, type=float)
    p.add_argument("--center", help="comma-separated center (default: origin and half-integer)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    p.add_argument("--out", help="directory for the deterministic result file")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    _reuse_freed_pages()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InputError, ValueError, discrete_core.CapExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
