"""Decision-space norms and their duals.

The decision space is R^n with one of three norms; the dual norm (used for
coefficient vectors and hull points) is derived, never stored:
euclid <-> euclid, l1 <-> linf, linf <-> l1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("euclid", "l1", "linf")

_DUAL = {"euclid": "euclid", "l1": "linf", "linf": "l1"}


@dataclass(frozen=True)
class NormSpec:
    """Identifies the norm on the decision space R^n."""

    kind: str = "euclid"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}; expected one of {KINDS}")

    def dual(self) -> "NormSpec":
        return NormSpec(_DUAL[self.kind])

    def value(self, x) -> float:
        return norm_value(self.kind, x)


def norm_value(kind: str, x) -> float:
    x = np.asarray(x, dtype=float)
    if kind == "euclid":
        return float(np.linalg.norm(x))
    if kind == "l1":
        # fsum is correctly rounded; numpy's pairwise sum can drift by a few
        # ulps and break the triangle inequality at large magnitudes.
        return math.fsum(np.abs(x).ravel())
    if kind == "linf":
        return float(np.abs(x).max()) if x.size else 0.0
    raise ValueError(f"unknown norm kind {kind!r}")


EUCLID = NormSpec("euclid")
L1 = NormSpec("l1")
LINF = NormSpec("linf")
