"""Bounds tables per n, the ball lattice-set energy experiment, and
deterministic result/manifest serialization."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .certificates import (GaussianScheduleParams, build_gaussian_certificate,
                           build_perturbation_certificate)
from .continuum import ASYMPTOTIC_LOG_BASE, BECKNER_L4_POW4
from .discrete_core import CapExceededError, LatticeSet, energy_of_set, trivial_lower_bound
from .optimizer import estimate_qn

# Known reference values: t_2 exactly.
REFERENCE_T = {2: math.log(6.0) / math.log(2.0)}

BOUNDS_CSV_COLUMNS = ("n", "trivial_lower", "perturbation_lower", "gaussian_lower",
                      "asymptotic_target", "empirical_t", "reference")
BALL_CSV_COLUMNS = ("d", "radius", "center", "set_size", "energy",
                    "energy_ratio", "reference_ratio")


@dataclass(frozen=True)
class BoundsRow:
    n: int
    trivial_lower: float
    perturbation_lower: float
    perturbation_strict: bool
    gaussian_lower: float | None
    asymptotic_target: float
    conjecture_target: float
    conjecture_eps: float
    empirical_t: float | None
    reference: float | None


@dataclass(frozen=True)
class BallExperimentRow:
    d: int
    radius: float
    center: tuple
    set_size: int
    energy: int
    energy_ratio: float
    reference_ratio: float


def asymptotic_target(n: int) -> float:
    """3 - log_n(3*sqrt(3)/4), the large-n target for the energy exponent."""
    return 3.0 - math.log(ASYMPTOTIC_LOG_BASE) / math.log(n)


def conjecture_target(n: int, eps: float) -> float:
    """3 - (1-eps) log_n(3*sqrt(3)/4), the conjectured upper envelope."""
    return 3.0 - (1.0 - eps) * math.log(ASYMPTOTIC_LOG_BASE) / math.log(n)


def bounds_row(n: int, eps: float = 0.5, with_optimizer: bool = False,
               seed: int = 0, tol: float = 1e-3) -> BoundsRow:
    trivial = trivial_lower_bound(n)
    pert, strict = trivial, False
    gaussian_lower = None
    if n >= 3:
        cert = build_perturbation_certificate(n)
        pert, strict = cert.implied_t_bound, cert.valid
        try:
            gcert = build_gaussian_certificate(GaussianScheduleParams.from_n_eps(n, eps))
            if gcert.valid:
                gaussian_lower = 4.0 / gcert.q
        except CapExceededError:  # support beyond GAUSSIAN_SUPPORT_CAP at large n
            pass
    empirical = estimate_qn(n, tol=tol, seed=seed).t_hat if with_optimizer else None
    row = BoundsRow(n=n, trivial_lower=trivial, perturbation_lower=pert,
                    perturbation_strict=strict, gaussian_lower=gaussian_lower,
                    asymptotic_target=asymptotic_target(n),
                    conjecture_target=conjecture_target(n, eps), conjecture_eps=eps,
                    empirical_t=empirical, reference=REFERENCE_T.get(n))
    if n >= 3 and not row.trivial_lower <= row.perturbation_lower + 1e-12 < 3.0:
        raise ArithmeticError(f"perturbation bound {row.perturbation_lower!r} is not in "
                              f"[trivial bound {row.trivial_lower!r}, 3) at n={n}")
    for bound in (row.trivial_lower, row.perturbation_lower, row.gaussian_lower):
        if bound is not None and bound > 3.0:
            raise ArithmeticError(f"lower bound {bound!r} exceeds 3 at n={n}")
    return row


def bounds_table(n_values, eps: float = 0.5, with_optimizer: bool = False,
                 seed: int = 0, tol: float = 1e-3) -> list[BoundsRow]:
    return [bounds_row(int(n), eps=eps, with_optimizer=with_optimizer,
                       seed=seed, tol=tol) for n in n_values]


# ---------------------------------------------------------------------------
# Ball lattice sets
# ---------------------------------------------------------------------------

def ball_lattice_set(d: int, radius: float, center=None,
                     point_cap: int = 2_000_000, side_cap: int = 4096) -> LatticeSet:
    """Integer points within Euclidean distance radius of center, translated
    so all coordinates lie in [0, n-1] with n the minimal enclosing side."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if center is None:
        center = (0.0,) * d
    center = tuple(float(c) for c in center)
    if len(center) != d:
        raise ValueError(f"center has {len(center)} coordinates, expected {d}")
    if not all(math.isfinite(c) for c in center):
        raise ValueError(f"center must be finite, got {center}")
    r2 = radius * radius
    for c in center:
        width = math.floor(c + radius) - math.ceil(c - radius) + 1
        if width > side_cap:
            raise CapExceededError(f"bounding side {width} exceeds cap {side_cap}")
    # build coordinates one dimension at a time, pruning on partial distance
    pts = np.zeros((1, 0), dtype=np.int64)
    sq = np.zeros(1)
    for i in range(d):
        lo = math.ceil(center[i] - radius)
        hi = math.floor(center[i] + radius)
        coords = np.arange(lo, hi + 1, dtype=np.int64)
        dd = (coords.astype(np.float64) - center[i]) ** 2
        total = sq[:, None] + dd[None, :]
        keep_row, keep_col = np.nonzero(total <= r2)
        if keep_row.size > point_cap * 4:
            raise CapExceededError(f"intermediate point count {keep_row.size} exceeds cap")
        pts = np.hstack([pts[keep_row], coords[keep_col, None]])
        sq = total[keep_row, keep_col]
    if pts.shape[0] > point_cap:
        raise CapExceededError(f"{pts.shape[0]} points exceed cap {point_cap}")
    if pts.shape[0] == 0:
        return LatticeSet(d, 1, pts)
    mins = pts.min(axis=0)
    side = int((pts.max(axis=0) - mins).max()) + 1
    shifted = pts - mins
    return LatticeSet(d, side, shifted)


def ball_energy_experiment(d_values, radius_schedule, center=None,
                           point_cap: int = 2_000_000) -> list[BallExperimentRow]:
    """Exact energies of ball lattice sets against the (4*sqrt(3)/9)^d line.

    Centers: the given center, or by default the lattice origin and the
    half-integer offset (the choice of center is otherwise arbitrary, so
    both are reported).  Empty balls are skipped.  The trend against the
    reference line is reported, never asserted.
    """
    rows = []
    for d in d_values:
        d = int(d)
        centers = [(0.0,) * d, (0.5,) * d] if center is None else [tuple(center)]
        for radius in radius_schedule:
            for c in centers:
                ball = ball_lattice_set(d, float(radius), c, point_cap=point_cap)
                if ball.size == 0:
                    continue
                energy = energy_of_set(ball)
                size = ball.size
                if not size ** 2 <= energy <= size ** 3:
                    raise ArithmeticError(f"E = {energy} outside [|B|^2, |B|^3] for |B| = {size}")
                rows.append(BallExperimentRow(
                    d=d, radius=float(radius), center=c, set_size=size,
                    energy=energy, energy_ratio=float(Fraction(energy, size ** 3)),
                    reference_ratio=BECKNER_L4_POW4 ** d))
    return rows


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return "%.12g" % v  # 12 significant digits in CSV; JSON keeps full precision
    if isinstance(v, tuple):
        return ";".join("%.12g" % c for c in v)
    return str(v)


def _json_document(rows, kind: str) -> str:
    """The JSON results document of write_results, without its final newline."""
    return json.dumps({"kind": kind, "rows": [asdict(r) for r in rows]}, indent=2)


def _csv_document(rows, kind: str) -> str:
    """The CSV results document of write_results, without its final newline.

    Lines end in LF; _fmt never yields a comma or a quote, so no field is quoted.
    """
    columns = BALL_CSV_COLUMNS if kind == "ball" else BOUNDS_CSV_COLUMNS
    lines = [",".join(columns)]
    lines += [",".join(_fmt(getattr(row, col)) for col in columns) for row in rows]
    return "\n".join(lines)


def write_results(rows, path, format: str = "json", kind: str | None = None) -> None:
    """Deterministic serialization of bounds or ball rows (json or csv)."""
    if format not in ("json", "csv"):
        raise ValueError(f"unknown format {format!r}")
    if kind is None:
        if rows and isinstance(rows[0], BallExperimentRow):
            kind = "ball"
        else:
            kind = "bounds"
    if kind not in ("bounds", "ball"):
        raise ValueError(f"unknown result kind {kind!r}")
    document = _json_document if format == "json" else _csv_document
    with open(path, "w") as fh:
        fh.write(document(rows, kind) + "\n")


def write_manifest(config: dict, seed: int, tool_version: str, path) -> None:
    """Record everything needed to reproduce a run.

    It carries no timestamp, so identical runs write identical bytes.
    """
    doc = {"tool_version": tool_version, "seed": seed, "config": config}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
