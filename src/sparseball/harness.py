"""Seeded instance generation, the experiment grid and CSV/SVG reporting.

Instances draw every nominal cost and scaling entry from U[0,1] using the
package's own xoshiro256** generator (splitmix64-seeded) so that results are
byte-stable across platforms; the generator name, the seed-derivation rule
and the scaling floor are all recorded in the run metadata.  Scalings below
1e-6 are redrawn to keep d strictly positive.  Every counterpart solve
returns an answer, so a grid run holds one record per (cell, instance,
method) and its report is always the CSV plus one SVG per cell.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from ._rng import Xoshiro256StarStar, splitmix64_mix
from .core import as_budget, as_int, loads_strict
from .robust import (
    METHODS,
    RobustInstance,
    nominal_value,
    solve_counterpart,
    worst_case,
)

PRNG_NAME = "xoshiro256** (splitmix64-seeded)"
SEED_RULE = "instance_seed = mix64(base_seed XOR mix64((k_index+1)<<40 | (b_index+1)<<20 | instance))"
D_FLOOR = 1e-6

CSV_HEADER = ("cell", "k", "b", "instance", "method", "nominal", "worst_case", "time_s")


def instance_seed(base_seed: int, k_index: int, b_index: int, instance: int) -> int:
    """Per-instance seed derived by splitting the base seed (positional counters).

    Every argument may be any integral number, numpy integers included.
    """
    base_seed = as_int(base_seed, "base_seed")
    k_index = as_int(k_index, "k_index")
    b_index = as_int(b_index, "b_index")
    instance = as_int(instance, "instance")
    counter = ((k_index + 1) << 40) | ((b_index + 1) << 20) | instance
    return splitmix64_mix((base_seed ^ splitmix64_mix(counter)) & ((1 << 64) - 1))


def generate_instance(n: int, k: int, b: float, seed: int) -> RobustInstance:
    """Draw a_tilde and d entrywise from U[0,1]; d entries below 1e-6 are redrawn.

    n and seed may be any integral number, numpy integers included; k and b
    go to RobustInstance unconverted, so its checks name a wrong type.
    """
    n = as_int(n, "n")
    rng = Xoshiro256StarStar(as_int(seed, "seed"))
    a_tilde = np.array(rng.uniforms(n))
    d = np.empty(n)
    for i in range(n):
        value = rng.uniform()
        while value < D_FLOOR:
            value = rng.uniform()
        d[i] = value
    return RobustInstance(a_tilde=a_tilde, d=d, b=b, k=k, n=n)


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid settings; defaults reproduce the full experiment.

    k_list, b_list and methods must be nonempty and free of duplicates.
    """

    n: int = 200
    k_list: tuple = (5, 10, 20)
    b_list: tuple = (5.0, 10.0, 20.0)
    instances_per_cell: int = 10
    seed: int = 0
    methods: tuple = METHODS
    record_wall_time: bool = True

    def __post_init__(self):
        n = as_int(self.n, "n")
        instances_per_cell = as_int(self.instances_per_cell, "instances_per_cell")
        seed = as_int(self.seed, "seed")
        if n < 1 or instances_per_cell < 1:
            raise ValueError("n and instances_per_cell must be positive")
        k_list = tuple(as_int(k, "k") for k in _as_tuple(self.k_list, "k_list"))
        b_list = tuple(as_budget(b) for b in _as_tuple(self.b_list, "b_list"))
        methods = _as_tuple(self.methods, "methods")
        if not k_list or not b_list:
            raise ValueError("k_list and b_list must be nonempty")
        if any(not 1 <= k <= n for k in k_list):
            raise ValueError("every k must satisfy 1 <= k <= n")
        if not methods:
            raise ValueError("methods must be nonempty")
        for m in methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        for name, values in (("k_list", k_list), ("b_list", b_list), ("methods", methods)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat an entry, got {list(values)}")
        if not isinstance(self.record_wall_time, bool):
            raise ValueError(f"record_wall_time must be a bool, got {self.record_wall_time!r} "
                             f"of type {type(self.record_wall_time).__name__}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "instances_per_cell", instances_per_cell)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "k_list", k_list)
        object.__setattr__(self, "b_list", b_list)
        object.__setattr__(self, "methods", methods)


def _as_tuple(value, name: str) -> tuple:
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{name} must be a list, got {value!r}") from None


def parse_experiment_config(obj: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from its JSON object form.

    The keys are the ExperimentConfig field names; any other key is an
    error naming it.  Fields pass through unconverted, so the constructor's
    checks see the file's own types: 16.9 or true for an integer field is
    an error.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"experiment config must be a JSON object, got {type(obj).__name__}")
    known = [f.name for f in fields(ExperimentConfig)]
    for key in obj:
        if key not in known:
            raise ValueError(f"unknown experiment config key {key!r}; expected one of {known}")
    return ExperimentConfig(**obj)


def load_experiment_config(path) -> ExperimentConfig:
    return parse_experiment_config(loads_strict(Path(path).read_text()))


def experiment_config_to_dict(config: ExperimentConfig) -> dict:
    out = {}
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


@dataclass(frozen=True)
class ExperimentRecord:
    """One (cell, instance, method) outcome of the grid."""

    k: int
    b: float
    instance: int
    method: str
    nominal_value: float
    worst_case: float
    solve_time: float

    @property
    def cell(self) -> str:
        return f"k{self.k}_b{self.b:g}"


@dataclass
class ExperimentRun:
    """Records plus reproducibility metadata."""

    config: ExperimentConfig
    records: list
    metadata: dict


def run_experiment(config: ExperimentConfig) -> ExperimentRun:
    """Solve every configured method on every generated instance of the grid.

    Every solve returns an answer, so there is one record per (cell,
    instance, method).  Output ordering is (k, b, instance,
    method-position) regardless of execution order, and the run is fully
    deterministic for a fixed config (timings aside; set
    record_wall_time=False to zero them).
    """
    records: list = []
    for ki, k in enumerate(config.k_list):
        for bi, b in enumerate(config.b_list):
            for inst_idx in range(config.instances_per_cell):
                seed = instance_seed(config.seed, ki, bi, inst_idx)
                inst = generate_instance(config.n, k, b, seed)
                for method in config.methods:
                    begin = time.perf_counter()
                    result = solve_counterpart(method, inst)
                    elapsed = time.perf_counter() - begin
                    records.append(ExperimentRecord(
                        k=k,
                        b=b,
                        instance=inst_idx,
                        method=method,
                        nominal_value=nominal_value(result.y_star, inst),
                        worst_case=worst_case(result.y_star, inst),
                        solve_time=elapsed if config.record_wall_time else 0.0,
                    ))
    method_pos = {m: i for i, m in enumerate(config.methods)}
    records.sort(key=lambda r: (r.k, r.b, r.instance, method_pos[r.method]))
    metadata = {
        "prng": PRNG_NAME,
        "seed_rule": SEED_RULE,
        "d_floor": D_FLOOR,
        "package_version": __version__,
        "config": experiment_config_to_dict(config),
    }
    return ExperimentRun(config=config, records=records, metadata=metadata)


# ---------------------------------------------------------------------------
# reporting


def records_to_csv(records) -> str:
    """Render records into the canonical CSV (repr-exact floats)."""
    if not records:
        raise ValueError("no records to report")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow([r.cell, r.k, repr(float(r.b)), r.instance, r.method,
                         repr(float(r.nominal_value)), repr(float(r.worst_case)),
                         repr(float(r.solve_time))])
    return buf.getvalue()


def parse_report_csv(path) -> list:
    """Inverse of the CSV writer (round-trips exactly)."""
    records = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        for row in reader:
            _, k, b, instance, method, nominal, worst, time_s = row
            records.append(ExperimentRecord(
                k=int(k), b=float(b), instance=int(instance), method=method,
                nominal_value=float(nominal), worst_case=float(worst),
                solve_time=float(time_s),
            ))
    return records


_SVG_SIZE = 420  # the scatter is a square of this many pixels
_MARKER_SHAPES = {
    "nominal": "cross",
    "budgeted": "triangle",
    "ellipsoidal": "diamond",
    "perspective": "circle",
}
_MARKER_COLORS = {
    "nominal": "#808080",
    "budgeted": "#d62728",
    "ellipsoidal": "#1f77b4",
    "perspective": "#2ca02c",
}


def _marker_svg(shape: str, cx: float, cy: float, size: float, color: str, cls: str) -> str:
    if shape == "circle":
        return (f'<circle class="{cls}" cx="{cx:.2f}" cy="{cy:.2f}" r="{size:.2f}" '
                f'fill="{color}" fill-opacity="0.75"/>')
    if shape == "triangle":
        pts = f"{cx:.2f},{cy - size:.2f} {cx - size:.2f},{cy + size:.2f} {cx + size:.2f},{cy + size:.2f}"
        return f'<polygon class="{cls}" points="{pts}" fill="{color}" fill-opacity="0.75"/>'
    if shape == "diamond":
        pts = (f"{cx:.2f},{cy - size:.2f} {cx + size:.2f},{cy:.2f} "
               f"{cx:.2f},{cy + size:.2f} {cx - size:.2f},{cy:.2f}")
        return f'<polygon class="{cls}" points="{pts}" fill="{color}" fill-opacity="0.75"/>'
    # cross
    return (f'<path class="{cls}" d="M {cx - size:.2f} {cy - size:.2f} L {cx + size:.2f} {cy + size:.2f} '
            f'M {cx - size:.2f} {cy + size:.2f} L {cx + size:.2f} {cy - size:.2f}" '
            f'stroke="{color}" stroke-width="1.5" fill="none"/>')


def cell_scatter_svg(records, title: str) -> str:
    """Scatter of nominal value (x) against worst case (y), one marker per record."""
    if not records:
        raise ValueError("no records for scatter")
    width = height = _SVG_SIZE
    xs = [r.nominal_value for r in records]
    ys = [r.worst_case for r in records]
    pad_frac = 0.08
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    x_lo -= pad_frac * x_span
    x_hi += pad_frac * x_span
    y_lo -= pad_frac * y_span
    y_hi += pad_frac * y_span
    margin = 50.0

    def sx(v):
        return margin + (v - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" font-size="13">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" font-size="11">nominal</text>',
        f'<text x="14" y="{height / 2:.0f}" text-anchor="middle" font-size="11" '
        f'transform="rotate(-90 14 {height / 2:.0f})">worst case</text>',
        f'<text x="{margin}" y="{height - margin + 14:.0f}" font-size="9" text-anchor="middle">{x_lo:.3g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 14:.0f}" font-size="9" '
        f'text-anchor="middle">{x_hi:.3g}</text>',
        f'<text x="{margin - 6}" y="{height - margin:.0f}" font-size="9" text-anchor="end">{y_lo:.3g}</text>',
        f'<text x="{margin - 6}" y="{margin:.0f}" font-size="9" text-anchor="end">{y_hi:.3g}</text>',
    ]
    for r in records:
        shape = _MARKER_SHAPES.get(r.method, "circle")
        color = _MARKER_COLORS.get(r.method, "#000000")
        parts.append(_marker_svg(shape, sx(r.nominal_value), sy(r.worst_case), 4.0,
                                 color, f"pt m-{r.method}"))
    legend_y = 30
    for i, method in enumerate(dict.fromkeys(r.method for r in records)):
        parts.append(_marker_svg(_MARKER_SHAPES.get(method, "circle"), width - margin - 90,
                                 legend_y + 16 * i, 4.0, _MARKER_COLORS.get(method, "#000"),
                                 "legend"))
        parts.append(f'<text x="{width - margin - 80}" y="{legend_y + 16 * i + 4}" '
                     f'font-size="10">{method}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def emit_report(records, out_dir, metadata=None) -> list:
    """Write results.csv, one scatter SVG per cell and, when metadata is
    given, metadata.json; returns written paths.  Records must be nonempty.

    I/O failures propagate as OSError naming the path.
    """
    if not records:
        raise ValueError("no records to report")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "results.csv"
    path.write_text(records_to_csv(records))
    written = [path]
    cells = {}
    for r in records:
        cells.setdefault((r.k, r.b), []).append(r)
    for (k, b), cell_records in sorted(cells.items()):
        path = out_dir / f"cell_k{k}_b{b:g}.svg"
        path.write_text(cell_scatter_svg(cell_records, title=f"k={k}, b={b:g}"))
        written.append(path)
    if metadata is not None:
        import json

        path = out_dir / "metadata.json"
        path.write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written
