"""Piecewise linear maps on [0, 1] as exact breakpoint lists."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .rationals import format_rational, parse_rational


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Breakpoints ``(x, y)`` with x strictly increasing from 0 to 1.

    Evaluation between breakpoints is exact linear interpolation; two maps are
    the same function iff their canonical forms (collinear interior points
    merged) are equal.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        pts = self.breakpoints
        if len(pts) < 2:
            raise ValueError("need at least two breakpoints")
        if pts[0][0] != 0 or pts[-1][0] != 1:
            raise ValueError("breakpoints must start at x=0 and end at x=1")
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if not x0 < x1:
                raise ValueError("breakpoint abscissas must be strictly increasing")
        for _, y in pts:
            if not (0 <= y <= 1):
                raise ValueError(f"ordinate out of [0, 1]: {y}")

    def __call__(self, x: Fraction) -> Fraction:
        if not (0 <= x <= 1):
            raise ValueError(f"argument out of [0, 1]: {x}")
        xs = [p[0] for p in self.breakpoints]
        i = bisect_right(xs, x) - 1
        if i == len(xs) - 1:
            return self.breakpoints[-1][1]
        x0, y0 = self.breakpoints[i]
        x1, y1 = self.breakpoints[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def canonical(self) -> "PiecewiseLinearMap":
        """Merge collinear interior breakpoints; the function is unchanged."""
        pts = self.breakpoints
        kept = [pts[0]]
        for i in range(1, len(pts) - 1):
            x0, y0 = kept[-1]
            x1, y1 = pts[i]
            x2, y2 = pts[i + 1]
            if (y1 - y0) * (x2 - x1) == (y2 - y1) * (x1 - x0):
                continue
            kept.append(pts[i])
        kept.append(pts[-1])
        return PiecewiseLinearMap(tuple(kept))

    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(
            (y1 - y0) / (x1 - x0)
            for (x0, y0), (x1, y1) in zip(self.breakpoints, self.breakpoints[1:])
        )

    def to_json_dict(self) -> dict:
        return {
            "breakpoints": [
                [format_rational(x), format_rational(y)] for x, y in self.breakpoints
            ]
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PiecewiseLinearMap":
        """Read ``{"breakpoints": [[x, y], ...]}`` with x and y rational strings."""
        rows = doc.get("breakpoints") if isinstance(doc, dict) else None
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and len(row) == 2 and all(isinstance(c, str) for c in row)
            for row in rows
        ):
            raise ValueError(
                'a map must be {"breakpoints": [[x, y], ...]} with x and y '
                'rational strings such as "1/2"'
            )
        try:
            pts = tuple((parse_rational(x), parse_rational(y)) for x, y in rows)
        except ZeroDivisionError as exc:
            raise ValueError(str(exc)) from exc
        return cls(pts)


def constant_plm(value: Fraction) -> PiecewiseLinearMap:
    return PiecewiseLinearMap(((Fraction(0), value), (Fraction(1), value)))
