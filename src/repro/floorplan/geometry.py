"""Plane geometry for floorplans.

On-chip routing follows Manhattan (rectilinear) paths, so all
distances here are L1 distances between points.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class Point:
    """A location on the die, in millimetres."""

    x: float
    y: float

    def manhattan_to(self, other: "Point") -> float:
        return abs(self.x - other.x) + abs(self.y - other.y)


def manhattan_distance(a: Point, b: Point) -> float:
    """Rectilinear distance between two points."""
    return a.manhattan_to(b)


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle: lower-left corner plus extents (mm)."""

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ConfigurationError(
                f"rectangle extents must be positive, got {self.width}x{self.height}"
            )

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def right(self) -> float:
        return self.x + self.width

    @property
    def top(self) -> float:
        return self.y + self.height

    def contains(self, p: Point) -> bool:
        return self.x <= p.x <= self.right and self.y <= p.y <= self.top
