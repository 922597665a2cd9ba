"""Sweep runner: repeated estimation over a p grid, CSV/SVG emission.

A sweep walks the mixing parameter p over a grid at fixed q, runs M repeated
estimations of all six estimators (three measures, non-optimal and optimal
variants) from fresh samples at each point, and aggregates means and
single-estimate standard deviations together with the three theory curves.
Each grid point also gets a nine-setting tomography draw whose family MLE
(tomography.family_mle, a closed form of the counts) supplies the p_fitted
column, so plots can use either the true or the fitted mixing parameter on
the x axis. A grid point makes one eigensolve, the check of its state, and
one measurement.probabilities table: its DA,DA row is the point's law, and
the whole (9, 4) table its tomography law.

All randomness derives from the master seed through counter-based stream
indices, making sweep outputs byte-identical across runs and platforms.
Repetition rep of slot s at grid point k reads stream
(master_seed, (k*M + rep)*8 + s). The grid is run in batches of whole points,
max(1, ROWS // M) of them, so a batch holds at most ROWS keyed-draw rows
unless one point alone has more. Each slot of a batch is one keyed draw over
the contiguous run indices of its points, a (points*M, 4) count array whose
every row is still its own (master_seed, run_index) stream, so the batch size
moves no draw. The batch's tomography datasets are one more keyed draw, one
(9, 4) block per point on stream (master_seed, TOMO_FLAG | point). The six
estimators act on the count array at once: one (6, points, M) table of
clipped estimates, reduced along M by one mean and one standard deviation.
The cap keeps the working set of a sweep with many repetitions (M >= ROWS,
one point per batch) at one point's, while a default sweep is one batch: one
keyed draw per slot and one for the tomography datasets.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import estimation, measurement, states, streams, tomography
from .errors import ConfigError, shown

DIRECT_STATE = "DirectState"
POST_PROCESS_MIX = "PostProcessMix"
MIXING_MODES = (DIRECT_STATE, POST_PROCESS_MIX)

# sweep kinds: concurrence coincides with negativity on the family and is
# deliberately not duplicated as a fourth block of rows
SWEEP_KINDS = (states.NEGATIVITY, states.LOG_NEGATIVITY, states.QGD)

# the six estimators of a grid point, in CSV row order
_ESTIMATORS = tuple((kind, variant) for kind in SWEEP_KINDS
                    for variant in estimation.VARIANTS)

CSV_HEADER = ("p_true,p_fitted,kind,variant,mean,stddev,"
              "theory_value,unc_nonopt,unc_qcrb,n_shots,reps,seed")

# stream slot layout: run_index = (point*M + rep)*8 + slot
SLOT_DIRECT = 0
SLOT_PURE = 1
SLOT_MIX = 2
SLOT_SELECT = 3
TOMO_FLAG = 1 << 62

# keyed-draw rows a batch of whole grid points aims at: a batch holds
# max(1, ROWS // M) points, so the default grid is one batch while a point of
# M >= ROWS repetitions is a batch of its own and the working set stays M rows
ROWS = 256

_DA_DA_ROW = measurement.SETTINGS.index(measurement.DA_DA)

_DEFAULT_GRID = tuple(round(0.1 * k, 10) for k in range(11))


def _number(name: str, value, kind: type, low, high, span: str):
    """kind(value), if value is an int or float (NumPy's too, a bool not) of
    that kind lying in [low, high], which NaN fails."""
    types = (int, np.integer) if kind is int else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, types) or not low <= value <= high:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {noun} in {span}, got {shown(value)}")
    return kind(value)


def check_seed(seed: int) -> int:
    """seed as an int, if it is an integer in [-2**63, 2**63); streams key a
    seed mod 2**64, so a wider range would alias seeds silently."""
    return _number("seed", seed, int, -2 ** 63, 2 ** 63 - 1, "[-2**63, 2**63)")


@dataclass(frozen=True)
class SweepConfig:
    """Sweep parameters, checked when built and stored as Python floats and
    ints; defaults give the reference figures."""

    q: float = 0.5
    p_grid: tuple[float, ...] = _DEFAULT_GRID
    n_shots: int = 10_000
    repetitions: int = 10
    master_seed: int = 42
    mixing_mode: str = DIRECT_STATE

    def __post_init__(self):
        # a string iterates over its characters; a number does not iterate
        try:
            grid = () if isinstance(self.p_grid, (str, bytes)) else tuple(self.p_grid)
        except TypeError:
            grid = ()
        if len(grid) == 0:
            raise ConfigError(f"p_grid must be a non-empty sequence of numbers, "
                              f"got {shown(self.p_grid)}")
        # a standard deviation needs two repetitions, and the run indices
        # (point*M + rep)*8 + slot must stay below TOMO_FLAG, the first
        # tomography stream
        max_reps = TOMO_FLAG // (8 * len(grid))
        checked = {
            "q": _number("q", self.q, float, 0, 1, "[0, 1]"),
            "p_grid": tuple(_number("grid value", p, float, 0, 1, "[0, 1]") for p in grid),
            "n_shots": _number("n_shots", self.n_shots, int, 1, streams.MAX_SHOTS,
                               "[1, 2**63 - 1]"),
            "repetitions": _number("repetitions", self.repetitions, int, 2, max_reps,
                                   f"[2, {max_reps}] for {len(grid)} grid points"),
            "master_seed": check_seed(self.master_seed),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if self.mixing_mode not in MIXING_MODES:
            raise ConfigError(f"mixing_mode must be one of {MIXING_MODES}, "
                              f"got {self.mixing_mode!r}")

    def to_text(self) -> str:
        grid = ", ".join(format(p, ".12g") for p in self.p_grid)
        return (
            "# sweep configuration (flat key = value format)\n"
            f"q = {format(self.q, '.12g')}\n"
            f"p_grid = {grid}\n"
            f"n_shots = {self.n_shots}\n"
            f"repetitions = {self.repetitions}\n"
            f"master_seed = {self.master_seed}\n"
            f"mixing_mode = {self.mixing_mode}\n"
        )


def parse_grid(value: str) -> tuple[float, ...]:
    chunks = value.strip().strip("[]").split(",")
    if len(chunks) > 1 and not all(chunk.strip() for chunk in chunks):
        raise ConfigError(f"empty grid entry in {value!r}")
    parts = [part for chunk in chunks for part in chunk.split()]
    try:
        return tuple(float(part) for part in parts)
    except ValueError as exc:
        raise ConfigError(f"bad grid value in {value!r}: {exc}") from exc


_FIELD_PARSERS = {
    "q": float,
    "p_grid": parse_grid,
    "n_shots": int,
    "repetitions": int,
    "master_seed": int,
    "mixing_mode": str,
}


def parse_config_text(text: str) -> dict:
    """Parse the flat key = value config format into typed values."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"config line {lineno}: {key!r} is set twice")
        try:
            out[key] = _FIELD_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"config line {lineno}: {exc}") from exc
    return out


def build_config(file_text: str | None = None, **overrides) -> SweepConfig:
    """Defaults, overlaid by an optional config file, then keyword overrides."""
    merged: dict = {}
    if file_text is not None:
        merged.update(parse_config_text(file_text))
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = value
    return dataclasses.replace(SweepConfig(), **merged)


class EstimatorStats(NamedTuple):
    """Aggregates for one estimator at one grid point."""

    kind: str
    variant: str
    mean: float
    stddev: float
    theory_value: float
    unc_nonopt: float
    unc_qcrb: float


class SweepRow(NamedTuple):
    p_true: float
    p_fitted: float
    stats: list[EstimatorStats]


def _batch_counts(cfg: SweepConfig, a: int, b: int, laws: np.ndarray,
                  mix_laws: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
    """((b - a)*M, 4) DA,DA count records of grid points [a, b), rows in
    (point, rep) order: one keyed draw per slot, whose rows are the streams
    (point*M + rep)*8 + slot, contiguous over the batch.

    laws, (b - a, 4), are the points' DA,DA laws, repeated to one row per
    record; mix_laws, the pure and dephased laws, select PostProcessMix.
    """
    m = cfg.repetitions

    def draw(slot: int, law: np.ndarray) -> np.ndarray:
        return streams.keyed_multinomials(cfg.master_seed,
                                          range(a * m * 8 + slot, b * m * 8 + slot, 8),
                                          cfg.n_shots, law)

    if mix_laws is None:
        return draw(SLOT_DIRECT, np.repeat(laws, m, axis=0))
    pure, dephased = mix_laws
    weights = np.repeat(cfg.p_grid[a:b], m)
    return draw(SLOT_SELECT, measurement.mixture_law(draw(SLOT_PURE, pure),
                                                     draw(SLOT_MIX, dephased), weights))


def _estimate_table(v: np.ndarray) -> np.ndarray:
    """(6, ...) table of the six clipped estimates from (2, ...) N-scale
    estimates v (estimation.n_estimates), rows in _ESTIMATORS order: one
    measure_estimates and one estimation.clip_to_range call per kind, both
    variants at once.

    It takes v, not the counts, so that a batch's counts are freed before
    the table is built, and fills one array: the batch's peak allocation
    then stays at the per-point sweep's."""
    table = np.empty((len(SWEEP_KINDS),) + v.shape)
    for row, kind in zip(table, SWEEP_KINDS):
        row[...] = estimation.clip_to_range(kind, estimation.measure_estimates(kind, v)[0])
    return table.reshape(len(_ESTIMATORS), *v.shape[1:])


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """M repeated six-estimator runs at every grid point, plus a tomographic fit.

    Grid points go in batches of max(1, ROWS // M) whole points. Each point's
    state is checked once and gives one probabilities table; the batch's
    (points, 9, 4) tables are its tomography laws, one keyed draw whose
    family MLEs are the p_fitted column, and their DA,DA rows its DA,DA laws.
    Each batch draws every slot as one keyed draw and reduces one
    (6, points, M) estimate table along M. PostProcessMix draws from the pure
    and dephased laws, the same at every point.
    """
    n = states.negativity_closed(np.array(cfg.p_grid), cfg.q)
    # per kind and point: theory_value, unc_nonopt and unc_qcrb
    curves = {kind: np.stack(estimation.theory(kind, n, cfg.q))[[0, 1, 3]].T.tolist()
              for kind in SWEEP_KINDS}
    mix_laws = None
    if cfg.mixing_mode == POST_PROCESS_MIX:
        mix_laws = (measurement.outcome_probabilities(states.family_state(1.0, cfg.q),
                                                      measurement.DA_DA),
                    measurement.outcome_probabilities(states.dephased_mixture(),
                                                      measurement.DA_DA))
    m = cfg.repetitions
    step = max(1, ROWS // m)
    rows = []
    for a in range(0, len(cfg.p_grid), step):
        b = min(a + step, len(cfg.p_grid))
        points = range(a, b)
        probs = np.array([measurement.probabilities(states.check_state(
            states.family_state(cfg.p_grid[point], cfg.q))) for point in points])
        tomo_keys = [TOMO_FLAG | point for point in points]
        fitted = [tomography.family_mle(tomography.TomoDataset(counts))[0] for counts in
                  streams.keyed_multinomials(cfg.master_seed, tomo_keys, cfg.n_shots, probs)]
        table = _estimate_table(estimation.n_estimates(
            _batch_counts(cfg, a, b, probs[:, _DA_DA_ROW], mix_laws).reshape(b - a, m, 4)))
        means, sds = table.mean(axis=-1).T.tolist(), table.std(axis=-1, ddof=1).T.tolist()
        del table  # not held while the batch's rows are built
        for j, point in enumerate(points):
            stats = [EstimatorStats(kind, variant, mean, sd, *curves[kind][point])
                     for (kind, variant), mean, sd in zip(_ESTIMATORS, means[j], sds[j])]
            rows.append(SweepRow(p_true=float(cfg.p_grid[point]), p_fitted=fitted[j],
                                 stats=stats))
    return rows


def _fmt(x: float) -> str:
    # + 0.0 turns a negative zero into 0
    return format(float(x) + 0.0, ".12g")


def csv_text(rows: list[SweepRow], cfg: SweepConfig) -> str:
    if not rows:
        raise ConfigError("no sweep rows to emit")
    lines = [CSV_HEADER]
    for row in rows:
        for st in row.stats:
            lines.append(",".join([
                _fmt(row.p_true), _fmt(row.p_fitted), st.kind, st.variant,
                _fmt(st.mean), _fmt(st.stddev), _fmt(st.theory_value),
                _fmt(st.unc_nonopt), _fmt(st.unc_qcrb),
                str(cfg.n_shots), str(cfg.repetitions), str(cfg.master_seed),
            ]))
    return "\n".join(lines) + "\n"


def emit_csv(rows: list[SweepRow], cfg: SweepConfig, path) -> str:
    text = csv_text(rows, cfg)
    with open(path, "wb") as fh:
        fh.write(text.encode("ascii"))
    return str(path)


# --- SVG ----------------------------------------------------------------------

_SVG_W, _SVG_H = 720, 520
_ML, _MR, _MT, _MB = 72, 24, 46, 58
_CURVE_POINTS = 201

_KIND_TITLES = {
    states.NEGATIVITY: "negativity",
    states.LOG_NEGATIVITY: "log-negativity",
    states.QGD: "geometric discord",
}


def _svg_x(x):
    """Panel x coordinate of a mixing parameter p, or of an array of them."""
    return _ML + (x - 0.0) / 1.0 * (_SVG_W - _ML - _MR)


# every panel draws its theory curves over the same p points, so the x text
# is fixed and a curve's points are one "%" of this template on its y values
_CURVE_P = np.linspace(0.0, 1.0, _CURVE_POINTS)
_CURVE_X_TEXT = ["%.2f" % x for x in _svg_x(_CURVE_P).tolist()]
_CURVE_TEMPLATE = " ".join(x + ",%.2f" for x in _CURVE_X_TEXT)


def _curve(ys, sy, style: str) -> str:
    """A theory curve over _CURVE_P; sy maps the whole array at once."""
    return (f'<polyline fill="none" {style} points="'
            f'{_CURVE_TEMPLATE % tuple(sy(ys).tolist())}"/>')


def svg_text(rows: list[SweepRow], cfg: SweepConfig, kind: str,
             variant: str) -> str:
    if not rows:
        raise ConfigError("no sweep rows to plot")
    if kind not in SWEEP_KINDS:
        raise ConfigError(f"unknown sweep kind {kind!r}")
    if variant not in estimation.VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")

    picked = [(row, st) for row in rows for st in row.stats
              if st.kind == kind and st.variant == variant]
    xs = np.array([row.p_true for row, _ in picked])
    means = np.array([st.mean for _, st in picked])
    errs = np.array([st.stddev for _, st in picked])

    value, half_n, _, half_q = estimation.theory(
        kind, states.negativity_closed(_CURVE_P, cfg.q), cfg.q)
    root_n = np.sqrt(cfg.n_shots)
    env_n_lo, env_n_hi = value - half_n / root_n, value + half_n / root_n
    env_q_lo, env_q_hi = value - half_q / root_n, value + half_q / root_n

    y_all = np.concatenate([value, env_n_lo, env_n_hi, env_q_lo, env_q_hi,
                            means - errs, means + errs])
    y_min, y_max = float(y_all.min()), float(y_all.max())
    pad = 0.06 * (y_max - y_min or 1.0)
    y_min, y_max = y_min - pad, y_max + pad

    def sy(y):
        """Panel y coordinate of a value, or of an array of them."""
        return _SVG_H - _MB - (y - y_min) / (y_max - y_min) * (_SVG_H - _MT - _MB)

    dashed = 'stroke="#1565c0" stroke-width="1.8" stroke-dasharray="8 5"'
    dotted = 'stroke="#e65100" stroke-width="1.4" stroke-dasharray="2 4"'
    solid = 'stroke="#2e7d32" stroke-width="1.6"'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2:.0f}" y="26" text-anchor="middle" '
        f'font-family="sans-serif" font-size="17">'
        f'{_KIND_TITLES[kind]} ({variant} estimator)</text>',
    ]
    # axes
    x0, y0 = _ML, _SVG_H - _MB
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{_SVG_W - _MR}" y2="{y0}" '
                 f'stroke="#333" stroke-width="1"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{_MT}" '
                 f'stroke="#333" stroke-width="1"/>')
    for tick in np.linspace(0.0, 1.0, 6):
        tx = _svg_x(tick)
        parts.append(f'<line x1="{tx:.2f}" y1="{y0}" x2="{tx:.2f}" y2="{y0 + 5}" '
                     f'stroke="#333" stroke-width="1"/>')
        parts.append(f'<text x="{tx:.2f}" y="{y0 + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{tick:.1f}</text>')
    for tick in np.linspace(y_min, y_max, 6):
        ty = sy(tick)
        parts.append(f'<line x1="{x0 - 5}" y1="{ty:.2f}" x2="{x0}" y2="{ty:.2f}" '
                     f'stroke="#333" stroke-width="1"/>')
        parts.append(f'<text x="{x0 - 9}" y="{ty + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="12">{tick:.3g}</text>')
    parts.append(f'<text x="{(_ML + _SVG_W - _MR) / 2:.0f}" y="{_SVG_H - 16}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="14">'
                 f'mixing parameter p</text>')
    parts.append(f'<text x="20" y="{(_MT + _SVG_H - _MB) / 2:.0f}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="14" '
                 f'transform="rotate(-90 20 {(_MT + _SVG_H - _MB) / 2:.0f})">'
                 f'{_KIND_TITLES[kind]}</text>')
    # theory curves: dashed value, dotted non-optimal envelope, solid qcrb envelope
    parts.append(_curve(value, sy, dashed))
    parts.append(_curve(env_n_lo, sy, dotted))
    parts.append(_curve(env_n_hi, sy, dotted))
    parts.append(_curve(env_q_lo, sy, solid))
    parts.append(_curve(env_q_hi, sy, solid))
    # data: error bars are the single-estimate standard deviation
    for cx, cy, top, bot in zip(*(a.tolist() for a in (
            _svg_x(xs), sy(means), sy(means + errs), sy(means - errs)))):
        parts.append(f'<line x1="{cx:.2f}" y1="{top:.2f}" x2="{cx:.2f}" '
                     f'y2="{bot:.2f}" stroke="#111" stroke-width="1.2"/>')
        for ty in (top, bot):
            parts.append(f'<line x1="{cx - 4:.2f}" y1="{ty:.2f}" '
                         f'x2="{cx + 4:.2f}" y2="{ty:.2f}" '
                         f'stroke="#111" stroke-width="1.2"/>')
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="#111"/>')
    # legend
    lx, ly = _ML + 12, _MT + 8
    for label, style in (("theory value", dashed),
                         ("non-optimal bound", dotted),
                         ("quantum bound", solid)):
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 34}" y2="{ly}" {style}/>')
        parts.append(f'<text x="{lx + 40}" y="{ly + 4}" font-family="sans-serif" '
                     f'font-size="12">{label}</text>')
        ly += 18
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg(rows: list[SweepRow], cfg: SweepConfig, kind: str, variant: str,
             path) -> str:
    text = svg_text(rows, cfg, kind, variant)
    with open(path, "wb") as fh:
        fh.write(text.encode("ascii"))
    return str(path)


def emit_all(rows: list[SweepRow], cfg: SweepConfig, out_dir) -> list[str]:
    """sweep.csv plus one SVG per (kind, variant): the six-panel figure set."""
    import os
    os.makedirs(out_dir, exist_ok=True)
    written = [emit_csv(rows, cfg, os.path.join(out_dir, "sweep.csv"))]
    for kind, variant in _ESTIMATORS:
        written.append(emit_svg(rows, cfg, kind, variant,
                                os.path.join(out_dir, f"{kind}_{variant}.svg")))
    return written
