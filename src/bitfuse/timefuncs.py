"""Piecewise-polynomial time functions.

Deterministic model coefficients (drift weights, correlation entries,
diffusion matrix entries) are restricted to piecewise-constant and
polynomial tables.  The class below is closed under sums and products
and admits exact antiderivatives, so every deterministic cross-variation
integral can be evaluated in closed form instead of by Riemann sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import InvalidSpec

__all__ = ["TimeFunction"]


@dataclass(frozen=True)
class TimeFunction:
    """A piecewise-polynomial function of time on [0, inf).

    ``breaks`` are the interior breakpoints (sorted, strictly increasing);
    piece k lives on [breaks[k-1], breaks[k]) with breaks[-1] := 0 and an
    unbounded last piece.  ``coeffs[k]`` are polynomial coefficients in
    absolute time, lowest order first.
    """

    breaks: tuple[float, ...]
    coeffs: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.coeffs) != len(self.breaks) + 1:
            raise InvalidSpec("need exactly one polynomial piece more than breakpoints")
        if any(not np.isfinite(b) for b in self.breaks):
            raise InvalidSpec("breakpoints must be finite")
        if any(b <= 0 for b in self.breaks[:1]) or any(
            b2 <= b1 for b1, b2 in zip(self.breaks, self.breaks[1:])
        ):
            raise InvalidSpec("breakpoints must be positive and strictly increasing")
        for c in self.coeffs:
            if len(c) == 0 or any(not np.isfinite(v) for v in c):
                raise InvalidSpec("polynomial coefficients must be finite and non-empty")

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(value: float) -> "TimeFunction":
        return TimeFunction(breaks=(), coeffs=((float(value),),))

    @staticmethod
    def polynomial(coeffs) -> "TimeFunction":
        return TimeFunction(breaks=(), coeffs=(tuple(float(c) for c in coeffs),))

    @staticmethod
    def piecewise_constant(breaks, values) -> "TimeFunction":
        if len(values) != len(breaks) + 1:
            raise InvalidSpec("piecewise-constant table needs len(values) == len(breaks) + 1")
        return TimeFunction(
            breaks=tuple(float(b) for b in breaks),
            coeffs=tuple((float(v),) for v in values),
        )

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(all(v == 0.0 for v in c) for c in self.coeffs)

    @property
    def is_piecewise_constant(self) -> bool:
        return all(len(c) == 1 for c in self.coeffs)

    def piece_index(self, t) -> np.ndarray:
        return np.searchsorted(np.asarray(self.breaks), np.asarray(t, dtype=float), side="right")

    def _by_piece(self, t, piece):
        """``piece(k, ts)`` at the times ``ts`` of each piece k, for a
        scalar or an array t.  A one-piece function evaluates the whole
        array without masks, with the same float operations."""
        t = np.asarray(t, dtype=float)
        if len(self.coeffs) == 1:
            out = np.asarray(piece(0, t), dtype=float)
        else:
            idx = self.piece_index(t)
            out = np.empty_like(t, dtype=float)
            for k in range(len(self.coeffs)):
                sel = idx == k
                if np.any(sel):
                    out[sel] = piece(k, t[sel])
        return out if out.ndim else float(out)

    def __call__(self, t):
        return self._by_piece(t, lambda k, ts: npoly.polyval(ts, np.asarray(self.coeffs[k])))

    # -- algebra -------------------------------------------------------

    def _merge(self, other, op) -> "TimeFunction":
        """Combine two functions piece by piece on their merged breakpoints."""
        merged = tuple(sorted(set(self.breaks) | set(other.breaks)))
        edges = (0.0,) + merged
        coeffs = []
        for left in edges:
            ka = int(np.searchsorted(np.asarray(self.breaks), left, side="right"))
            kb = int(np.searchsorted(np.asarray(other.breaks), left, side="right"))
            c = op(np.asarray(self.coeffs[ka]), np.asarray(other.coeffs[kb]))
            coeffs.append(tuple(float(v) for v in c))
        return TimeFunction(breaks=merged, coeffs=tuple(coeffs))

    def __mul__(self, other: "TimeFunction") -> "TimeFunction":
        if not isinstance(other, TimeFunction):
            return NotImplemented
        return self._merge(other, npoly.polymul)

    def __add__(self, other: "TimeFunction") -> "TimeFunction":
        if not isinstance(other, TimeFunction):
            return NotImplemented
        return self._merge(other, npoly.polyadd)

    def integral(self, t):
        """Exact cumulative integral over [0, t], vectorized in t."""
        edges = (0.0,) + self.breaks
        anti = [npoly.polyint(np.asarray(c)) for c in self.coeffs]
        # cumulative integral up to the start of each piece
        base = np.zeros(len(self.coeffs))
        for k in range(1, len(self.coeffs)):
            lo, hi = edges[k - 1], edges[k]
            base[k] = base[k - 1] + npoly.polyval(hi, anti[k - 1]) - npoly.polyval(lo, anti[k - 1])
        return self._by_piece(
            t, lambda k, ts: base[k] + npoly.polyval(ts, anti[k]) - npoly.polyval(edges[k], anti[k]))

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        if self.is_piecewise_constant and len(self.coeffs) > 1:
            return {
                "type": "piecewise_constant",
                "breaks": list(self.breaks),
                "values": [c[0] for c in self.coeffs],
            }
        if len(self.coeffs) == 1 and len(self.coeffs[0]) == 1:
            return {"type": "constant", "value": self.coeffs[0][0]}
        if len(self.coeffs) == 1:
            return {"type": "polynomial", "coeffs": list(self.coeffs[0])}
        raise InvalidSpec("general piecewise-polynomial tables are internal only")

    @staticmethod
    def from_dict(d: dict) -> "TimeFunction":
        kind = d.get("type")
        if kind == "constant":
            return TimeFunction.constant(d["value"])
        if kind == "polynomial":
            return TimeFunction.polynomial(d["coeffs"])
        if kind == "piecewise_constant":
            return TimeFunction.piecewise_constant(d["breaks"], d["values"])
        raise InvalidSpec(f"unknown time-function type: {kind!r}")


def as_timefunction(value) -> TimeFunction:
    """Coerce a scalar, dict, or TimeFunction to a TimeFunction."""
    if isinstance(value, TimeFunction):
        return value
    if isinstance(value, dict):
        return TimeFunction.from_dict(value)
    if np.isscalar(value):
        return TimeFunction.constant(float(value))
    raise InvalidSpec(f"cannot interpret {value!r} as a time function")
