"""Monte-Carlo harness: phase-transition and stability studies.

A sweep is a pure function of its spec: every sensing matrix and every
instance draw derives its seed from (master_seed, cell index, trial
index), aggregation runs in fixed trial order, and output files carry no
timestamps, so reruns are byte-identical.  Cells run one after another
on the calling thread.  An error in any cell propagates, so a sweep
either completes every cell or raises; no cell becomes a NaN row.
"""

import csv
import hashlib
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from io import StringIO
from itertools import chain

import numpy as np

from . import __version__
from .errors import ArgumentError
from .io import write_lines
from .linop import check_real, check_sizes
from .models import build_family, check_instance_spec, gen_instance
from .seeding import check_seed, derive_seed, is_integer
from .solvers import (
    IrlsConfig,
    PenalizedL1Config,
    check_success,
    solve_irls_lp_batch,
    solve_penalized_l1_batch,
)

PT_COLUMNS = ("family", "n", "m", "s", "k", "setting", "lambda", "trials",
              "success_fraction")
STAB_COLUMNS = ("family", "n", "m", "s", "k", "solver", "eps_amp", "eps_ball",
                "trials", "mean_error", "std_error")

SOLVER_NAMES = ("penalized_l1", "irls_lp")


def _check_common(spec, *sweeps):
    """`spec`'s master seed must be valid, and each named sweep non-empty
    and naming no value twice."""
    check_seed(spec.master_seed)
    for name in sweeps:
        values = tuple(getattr(spec, name))
        if not values:
            raise ArgumentError(f"{name} is empty")
        if len(set(values)) != len(values):
            raise ArgumentError(f"{name} names a value twice: {values}")


@dataclass(frozen=True)
class PhaseTransitionSpec:
    """Grid of (s, k) cells; one matrix per cell, fresh instances per trial."""

    family: str
    n: int
    m: int
    s_values: tuple
    k_values: tuple
    trials: int
    setting: str
    solver_cfg: PenalizedL1Config
    master_seed: int

    def __post_init__(self):
        _check_common(self, "s_values", "k_values")
        check_sizes("trials", self.trials)
        for pick in (min, max):
            check_instance_spec(self.n, self.m, pick(self.s_values), pick(self.k_values),
                                self.setting, 0.0)


@dataclass(frozen=True)
class StabilitySpec:
    """Noise sweep at fixed (s, k); errors recorded per solver."""

    family: str
    n: int
    m: int
    s: int
    k: int
    eps_values: tuple
    trials: int
    solvers: tuple = SOLVER_NAMES
    irls_cfg: IrlsConfig = field(default_factory=IrlsConfig)
    lambda_reg: float = 1.0
    solver_cfg: PenalizedL1Config = None
    master_seed: int = 0

    def __post_init__(self):
        _check_common(self, "eps_values", "solvers")
        check_real("lambda_reg", self.lambda_reg, 0)
        cfg = self.solver_cfg
        if cfg is not None and cfg.lambda_reg != self.lambda_reg:
            raise ArgumentError(f"solver_cfg.lambda_reg {cfg.lambda_reg} "
                                f"differs from lambda_reg {self.lambda_reg}")
        if cfg is not None and cfg.epsilon != 0:
            raise ArgumentError(f"solver_cfg.epsilon must be 0, since each cell sets it "
                                f"to its eps_ball, got {cfg.epsilon!r}")
        for eps in self.eps_values:
            check_instance_spec(self.n, self.m, self.s, self.k, "gaussian", eps)
        if tuple(self.eps_values) != tuple(sorted(self.eps_values)):
            raise ArgumentError("eps_values must be sorted ascending")
        for name in self.solvers:
            if name not in SOLVER_NAMES:
                raise ArgumentError(f"unknown solver '{name}'")
        if not is_integer(self.trials) or self.trials < 2:
            raise ArgumentError("trials must be an integer of at least 2, since a spread "
                                f"needs two samples, got {self.trials!r}")


@dataclass
class ResultTable:
    """Column-named rows plus the provenance that reproduces them."""

    columns: tuple
    rows: list
    provenance: dict


def _changed_fields(obj):
    """`name=value` for each dataclass field of `obj` that differs from its
    default, a nested dataclass reduced the same way, so a field that holds
    its default leaves no trace."""
    parts = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        default = f.default if f.default_factory is MISSING else f.default_factory()
        if default is not MISSING and value == default:
            continue
        text = f"({_changed_fields(value)})" if is_dataclass(value) else repr(value)
        parts.append(f"{f.name}={text}")
    return ";".join(parts)


def _spec_digest(spec):
    return hashlib.sha256(_changed_fields(spec).encode()).hexdigest()[:16]


def _provenance(spec):
    return {
        "seed": str(spec.master_seed),
        "spec_sha256": _spec_digest(spec),
        "version": __version__,
    }


def _gen_batch(model, s, k, setting, noise_amp, seeds):
    insts = [gen_instance(model, s, k, setting, noise_amp, sd) for sd in seeds]
    y = np.stack([inst.y for inst in insts], axis=1)
    return insts, y


def _pt_cell(spec, model, s_idx, k_idx):
    trial_seeds = [derive_seed(spec.master_seed, (1, s_idx, k_idx, t))
                   for t in range(spec.trials)]
    insts, y = _gen_batch(model, int(spec.s_values[s_idx]), int(spec.k_values[k_idx]),
                          spec.setting, 0.0, trial_seeds)
    results = solve_penalized_l1_batch(model, y, spec.solver_cfg)
    hits = [check_success(r, inst) for r, inst in zip(results, insts)]
    return float(np.mean(np.asarray(hits, dtype=np.float64)))


def run_phase_transition(spec):
    """Success fraction per (s, k) cell of the grid.

    One sensing matrix is drawn per cell; each of the `trials` instances
    is a fresh noiseless draw on that matrix, so a high success fraction
    exercises recovery of many sparse pairs through one matrix.
    """
    cells = [(si, ki) for ki in range(len(spec.k_values))
             for si in range(len(spec.s_values))]
    # every model is built before any cell runs, so a model that cannot be
    # built fails the sweep before any solve
    models = [build_family(spec.family, spec.n, spec.m,
                           derive_seed(spec.master_seed, (0, si, ki)))
              for si, ki in cells]
    rows = [(spec.family, spec.n, spec.m, int(spec.s_values[si]),
             int(spec.k_values[ki]), spec.setting, spec.solver_cfg.lambda_reg, spec.trials,
             _pt_cell(spec, model, si, ki))
            for model, (si, ki) in zip(models, cells)]
    return ResultTable(columns=PT_COLUMNS, rows=rows, provenance=_provenance(spec))


def _stability_cell(spec, model, eps_idx):
    eps_amp = float(spec.eps_values[eps_idx])
    eps_ball = eps_amp * np.sqrt(spec.m)
    trial_seeds = [derive_seed(spec.master_seed, (1, eps_idx, t))
                   for t in range(spec.trials)]
    insts, y = _gen_batch(model, spec.s, spec.k, "gaussian", eps_amp, trial_seeds)
    out = {}
    for name in spec.solvers:
        if name == "penalized_l1":
            base = spec.solver_cfg or PenalizedL1Config(lambda_reg=spec.lambda_reg)
            results = solve_penalized_l1_batch(model, y, replace(base, epsilon=eps_ball))
        else:
            results = solve_irls_lp_batch(model, y, spec.irls_cfg)
        errs = np.array([
            np.linalg.norm(r.x_hat - inst.x_true)
            + np.linalg.norm(r.z_hat - inst.z_true)
            for r, inst in zip(results, insts)])
        out[name] = (float(np.mean(errs)), float(np.std(errs, ddof=1)))
    return eps_amp, eps_ball, out


def run_stability(spec, threads=1):
    """Mean and spread of the recovery error across the noise sweep.

    One matrix serves the whole sweep; the per-entry noise amplitude is
    converted to the ball radius eps_ball = eps_amp * sqrt(m) for the
    penalized solver, while the reweighted solver consumes the noisy
    observations unchanged.  `threads` is ignored: the cells run in order
    on the calling thread, and the keyword stays so existing callers work.
    """
    model_seed = derive_seed(spec.master_seed, (0,))
    model = build_family(spec.family, spec.n, spec.m, model_seed)
    cells = [_stability_cell(spec, model, i) for i in range(len(spec.eps_values))]
    rows = []
    for name in spec.solvers:
        for eps_amp, eps_ball, out in cells:
            mean, std = out[name]
            rows.append((spec.family, spec.n, spec.m, spec.s, spec.k, name,
                         eps_amp, eps_ball, spec.trials, mean, std))
    provenance = _provenance(spec)
    provenance["eps_ball_rule"] = "eps_amp*sqrt(m)"
    return ResultTable(columns=STAB_COLUMNS, rows=rows, provenance=provenance)


def _format_value(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def _parse_value(cell):
    try:
        num = float(cell)
    except ValueError:
        return cell
    integral = num.is_integer() and "." not in cell and "e" not in cell.lower()
    return int(num) if integral else num


def emit_csv(table, path):
    """Write a ResultTable as CSV with '#' provenance comment lines.

    Floats carry 17 significant digits; identical tables produce
    byte-identical files.
    """
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows([_format_value(v) for v in row] for row in table.rows)
    write_lines(path, [f"# {key}={table.provenance[key]}" for key in sorted(table.provenance)]
                + buf.getvalue().split("\n")[:-1])


def parse_csv(path):
    """Read back a file written by emit_csv, typing each value as int, float or text."""
    provenance = {}
    with open(path, newline="") as fh:
        line = fh.readline()
        while line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            provenance[key] = val
            line = fh.readline()
        records = [record for record in csv.reader(chain([line], fh)) if record]
    columns = tuple(records[0]) if records else None
    rows = [tuple(_parse_value(cell) for cell in record) for record in records[1:]]
    return ResultTable(columns=columns, rows=rows, provenance=provenance)


_SVG_COLORS = ("#1f6fb4", "#d65c1e", "#2e8b57", "#8b3a8b", "#b0a023", "#555555")
_TICKS = 5  # ticks per axis


def _ticks(lo, hi):
    return [float(t) for t in np.linspace(lo, hi, _TICKS)]


def _svg_line_chart(series, x_label, y_label, y_range, path):
    width, height = 640, 480
    ml, mr, mt, mb = 70, 160, 20, 50
    pw, ph = width - ml - mr, height - mt - mb

    xs = [x for _, pts in series for x, _ in pts]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = y_range

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y):
        return mt + ph - (y - y_lo) / (y_hi - y_lo) * ph

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
               f'height="{height}" viewBox="0 0 {width} {height}">')
    out.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>')
    out.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
               'stroke="black" stroke-width="1"/>')
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        out.append(f'<line x1="{px:.2f}" y1="{mt + ph}" x2="{px:.2f}" '
                   f'y2="{mt + ph + 5}" stroke="black"/>')
        out.append(f'<text x="{px:.2f}" y="{mt + ph + 20}" font-size="12" '
                   f'text-anchor="middle">{t:.6g}</text>')
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        out.append(f'<line x1="{ml - 5}" y1="{py:.2f}" x2="{ml}" y2="{py:.2f}" '
                   'stroke="black"/>')
        out.append(f'<text x="{ml - 8}" y="{py + 4:.2f}" font-size="12" '
                   f'text-anchor="end">{t:.6g}</text>')
    out.append(f'<text x="{ml + pw / 2:.2f}" y="{height - 12}" font-size="14" '
               f'text-anchor="middle">{x_label}</text>')
    out.append(f'<text x="18" y="{mt + ph / 2:.2f}" font-size="14" '
               f'text-anchor="middle" transform="rotate(-90 18 {mt + ph / 2:.2f})">'
               f'{y_label}</text>')
    for i, (label, pts) in enumerate(series):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   'stroke-width="1.5"/>')
        for x, y in pts:
            out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" '
                       f'fill="{color}"/>')
        ly = mt + 16 + 18 * i
        out.append(f'<line x1="{ml + pw + 10}" y1="{ly}" x2="{ml + pw + 34}" '
                   f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{ml + pw + 40}" y="{ly + 4}" font-size="12">{label}</text>')
    out.append("</svg>")
    write_lines(path, out)


def _series(table, key, x, y, label):
    """One sorted (label(group), [(x, y), ...]) series per value of column
    `key`, the groups in sorted order."""
    for name in (key, x, y):
        if name not in table.columns:
            raise ArgumentError(f"table lacks required column '{name}'")
    ik, ix, iy = (table.columns.index(name) for name in (key, x, y))
    groups = {}
    for row in table.rows:
        groups.setdefault(row[ik], []).append((float(row[ix]), float(row[iy])))
    return [(label(g), sorted(pts)) for g, pts in sorted(groups.items())]


def emit_plot(table, kind, path):
    """Standalone SVG line chart of a ResultTable.

    kind "success_vs_s": one series per corruption sparsity k.
    kind "error_vs_eps": one series per solver.
    """
    if kind == "success_vs_s":
        series = _series(table, "k", "s", "success_fraction", lambda k: f"k = {k}")
        _svg_line_chart(series, "signal sparsity s", "probability of success",
                        (0.0, 1.0), path)
    elif kind == "error_vs_eps":
        series = _series(table, "solver", "eps_amp", "mean_error", str)
        top = max((y for _, pts in series for _, y in pts), default=1.0)
        top = top * 1.05 if top > 0 else 1.0
        _svg_line_chart(series, "noise amplitude", "mean recovery error",
                        (0.0, top), path)
    else:
        raise ArgumentError(f"unknown plot kind '{kind}'")
