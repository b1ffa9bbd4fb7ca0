"""Experiment plumbing: results, tables, CSV export, and scale presets.

Every figure generator returns an :class:`ExperimentResult` -- a named list
of flat row dictionaries plus free-form metadata.  The benchmarks print the
rendered table (the reproduction of the figure's data series) and the tests
only assert structural properties of the rows, so the two never disagree
about what an experiment produces.

Scales
------
The paper's experiments run on 100 M synthetic entities and 30 M real
devices; the reproduction exposes three laptop-scale presets and reads the
``REPRO_SCALE`` environment variable so benchmark runs can be grown without
touching code:

========  ==========  ========  ==========================
scale     entities    queries   hash-function sweep
========  ==========  ========  ==========================
tiny      120         5         16, 32, 64
small     400         12        64, 128, 256, 512
medium    1200        20        128, 256, 512, 1024, 2048
========  ==========  ========  ==========================
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = ["Scale", "ExperimentResult", "resolve_scale", "SCALES"]


@dataclass(frozen=True)
class Scale:
    """A scale preset for the experiment workloads."""

    name: str
    #: Number of entities in the generated datasets.
    num_entities: int
    #: Number of query entities sampled per measurement point.
    num_queries: int
    #: Hash-function sweep used by the nh-sensitive figures.
    hash_sweep: Tuple[int, ...]
    #: Default number of hash functions for figures that fix nh.
    default_hashes: int
    #: Simulation horizon in base temporal units (hours).
    horizon: int
    #: Grid side for the SYN workload.
    grid_side: int
    #: Result sizes evaluated by the k-sensitive figures.
    k_values: Tuple[int, ...] = (1, 10, 50)


SCALES: Dict[str, Scale] = {
    "tiny": Scale(
        name="tiny",
        num_entities=120,
        num_queries=5,
        hash_sweep=(16, 32, 64),
        default_hashes=64,
        horizon=72,
        grid_side=8,
        k_values=(1, 5, 10),
    ),
    "small": Scale(
        name="small",
        num_entities=400,
        num_queries=12,
        hash_sweep=(64, 128, 256, 512),
        default_hashes=256,
        horizon=120,
        grid_side=12,
        k_values=(1, 10, 50),
    ),
    "medium": Scale(
        name="medium",
        num_entities=1200,
        num_queries=20,
        hash_sweep=(128, 256, 512, 1024, 2048),
        default_hashes=512,
        horizon=24 * 7,
        grid_side=16,
        k_values=(1, 10, 50),
    ),
}


def resolve_scale(scale: Union[str, Scale, None] = None) -> Scale:
    """Resolve a scale argument (or the ``REPRO_SCALE`` environment variable)."""
    if isinstance(scale, Scale):
        return scale
    if scale is None:
        scale = os.environ.get("REPRO_SCALE", "small")
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; expected one of {sorted(SCALES)}"
        ) from None


@dataclass
class ExperimentResult:
    """The data series behind one figure."""

    name: str
    #: One flat dictionary per data point.
    rows: List[Dict[str, object]] = field(default_factory=list)
    #: Free-form metadata (scale, parameters, notes).
    metadata: Dict[str, object] = field(default_factory=dict)

    def add_row(self, **values: object) -> None:
        """Append one data point."""
        self.rows.append(dict(values))

    def columns(self) -> List[str]:
        """Union of row keys, in first-seen order."""
        seen: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in seen:
                    seen.append(key)
        return seen

    def column(self, name: str) -> List[object]:
        """All values of one column (missing entries become ``None``)."""
        return [row.get(name) for row in self.rows]

    def filter(self, **criteria: object) -> "ExperimentResult":
        """Rows matching all the given column values, as a new result."""
        matching = [
            row
            for row in self.rows
            if all(row.get(key) == value for key, value in criteria.items())
        ]
        return ExperimentResult(name=self.name, rows=matching, metadata=dict(self.metadata))

    def series(self, x: str, y: str, **criteria: object) -> List[Tuple[object, object]]:
        """``(x, y)`` pairs of the rows matching ``criteria`` (figure series)."""
        return [(row.get(x), row.get(y)) for row in self.filter(**criteria).rows]

    # ------------------------------------------------------------------
    def to_table(self, max_rows: Optional[int] = None) -> str:
        """Render the rows as an aligned text table (what the benches print)."""
        columns = self.columns()
        if not columns:
            return f"{self.name}: (no rows)"
        rows = self.rows if max_rows is None else self.rows[:max_rows]
        rendered: List[List[str]] = [[_format_value(row.get(col)) for col in columns] for row in rows]
        widths = [
            max(len(col), *(len(line[index]) for line in rendered)) if rendered else len(col)
            for index, col in enumerate(columns)
        ]
        header = "  ".join(col.ljust(width) for col, width in zip(columns, widths))
        separator = "  ".join("-" * width for width in widths)
        body = [
            "  ".join(value.ljust(width) for value, width in zip(line, widths))
            for line in rendered
        ]
        title = f"== {self.name} =="
        omitted = "" if max_rows is None or len(self.rows) <= max_rows else f"\n... ({len(self.rows) - max_rows} more rows)"
        return "\n".join([title, header, separator, *body]) + omitted

    def save_csv(self, path: str) -> None:
        """Write the rows to a CSV file."""
        columns = self.columns()
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({key: row.get(key, "") for key in columns})

    def __len__(self) -> int:
        return len(self.rows)


def _format_value(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
