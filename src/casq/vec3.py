"""Small 3-vector helpers on plain float tuples.

Quadrature integrands evaluate these millions of times; plain tuples keep
the per-call cost low and the package free of array libraries.
"""

from __future__ import annotations

import math
import sys

Vec3 = tuple[float, float, float]
_TINY, _HUGE = sys.float_info.min, sys.float_info.max


def vec3(v, where: str) -> Vec3:
    """``v`` as a tuple of three floats; ``ValueError`` naming ``where`` if it
    does not have exactly three components."""
    t = tuple(map(float, v))
    if len(t) != 3:
        raise ValueError(f"{where} must have 3 components, got {len(t)}")
    return t


def dot3(a: Vec3, b: Vec3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross3(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def sub3(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def scale3(s: float, a: Vec3) -> Vec3:
    return (s * a[0], s * a[1], s * a[2])


def norm3(a: Vec3) -> float:
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def normalize3(a: Vec3) -> Vec3:
    s = a[0] * a[0] + a[1] * a[1] + a[2] * a[2]
    # outside the normal range the squares overflow or lose their digits
    n = math.sqrt(s) if _TINY <= s <= _HUGE else math.hypot(*a)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return (a[0] / n, a[1] / n, a[2] / n)


def perp_basis(k: Vec3) -> tuple[Vec3, Vec3]:
    """Two orthonormal vectors spanning the plane perpendicular to unit k.

    The reference axis switches near the poles to keep the construction
    well conditioned for every direction.
    """
    ref: Vec3 = (0.0, 0.0, 1.0) if abs(k[2]) < 0.9 else (1.0, 0.0, 0.0)
    e1 = normalize3(cross3(k, ref))
    e2 = cross3(k, e1)
    return e1, e2
