"""Command-line surface: build models, generate instances, solve, sweep.

Subcommands: model, gen, solve, pt, stability, rip, bounds.  Flags are
uniform `--key value` pairs; a `--config file` of `key = value` lines may
supply defaults which explicit flags override.  Every run writes a
`run_manifest.txt` with the fully resolved configuration so outputs are
attributable and byte-identical when rerun.

Exit codes: 0 success, 1 computational error (also an invalid sweep spec
or an unreadable instance file), 2 usage error.
"""

import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, io, rip
from .errors import DemixError, UsageError
from .linop import materialize
from .models import build_family, canonical_family, coherence, gen_instance
from .experiments import (
    PhaseTransitionSpec,
    StabilitySpec,
    emit_csv,
    emit_plot,
    run_phase_transition,
    run_stability,
)
from .solvers import (
    IrlsConfig,
    PenalizedL1Config,
    solve_irls_lp,
    solve_penalized_l1,
)

SUBCOMMANDS = ("model", "gen", "solve", "pt", "stability", "rip", "bounds")

# flag -> (parser, description); every subcommand draws from this table
_FLAG_PARSERS = {
    "family": str,
    "n": int,
    "m": int,
    "s": str,        # int, list or range syntax depending on subcommand
    "k": str,
    "lambda": float,
    "eps": str,      # scalar or sweep list
    "trials": int,
    "setting": str,
    "seed": int,
    "p": float,
    "nu": float,
    "out": str,
    "config": str,
    "threads": int,
    "instance": str,
    "solver": str,
    "theorem": int,
    "ntilde": int,
    "mu-b": float,
    "mu-g": float,
    "delta": float,
    "budget": int,
    "max-iter": int,
    "tol": float,
    "support-csv": str,
    "noise-model": str,
}

_REQUIRED = {
    "model": ("family", "n", "m"),
    "gen": ("family", "n", "m", "s", "k"),
    "solve": ("instance", "lambda"),
    "pt": ("family", "n", "m", "s", "k", "trials"),
    "stability": ("family", "n", "m", "s", "k", "eps", "trials"),
    "rip": ("family", "n", "m", "s", "k"),
    "bounds": ("theorem", "s", "k", "delta"),
}


@dataclass
class CliConfig:
    subcommand: str
    params: dict
    seed: int
    output_dir: Path


def parse_int_list(text, flag):
    """Sweep syntax: 'a,b,c' or inclusive range 'a:b'."""
    text = str(text)
    try:
        if ":" in text:
            lo, hi = text.split(":")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse {flag} value '{text}'") from None


def parse_float_list(text, flag):
    """Sweep syntax: 'a,b,c' or 'start:stop:step' (inclusive, rounded)."""
    text = str(text)
    try:
        if ":" in text:
            lo, hi, step = (float(p) for p in text.split(":"))
            count = int(round((hi - lo) / step)) + 1
            if count < 1:
                raise ValueError
            return tuple(round(lo + i * step, 12) for i in range(count))
        return tuple(float(p) for p in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse {flag} value '{text}'") from None


def _single_int(text, flag, convert=int):
    try:
        return convert(text)
    except ValueError:
        kind = "integer" if convert is int else "number"
        raise UsageError(f"'--{flag}' takes one {kind} here, got '{text}'") from None


def _read_config_file(path):
    values = {}
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, val = line.partition("=")
                if not sep:
                    raise UsageError(f"malformed config line: '{line}'")
                values[key.strip()] = val.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    return values


def parse_args(argv):
    """Parse argv into a CliConfig; raises UsageError on any defect."""
    if not argv:
        raise UsageError(f"missing subcommand; expected one of {', '.join(SUBCOMMANDS)}")
    sub = argv[0]
    if sub in ("-h", "--help", "help"):
        print(_usage())
        raise SystemExit(0)
    if sub not in SUBCOMMANDS:
        raise UsageError(f"unknown subcommand '{sub}'")

    raw = {}
    i = 1
    while i < len(argv):
        tok = argv[i]
        if not tok.startswith("--"):
            raise UsageError(f"expected a --flag, got '{tok}'")
        name = tok[2:]
        if name not in _FLAG_PARSERS:
            raise UsageError(f"unknown flag '--{name}'")
        if i + 1 >= len(argv):
            raise UsageError(f"flag '--{name}' needs a value")
        raw[name] = argv[i + 1]
        i += 2

    if "config" in raw:
        file_values = _read_config_file(raw.pop("config"))
        for key, val in file_values.items():
            if key not in _FLAG_PARSERS:
                raise UsageError(f"unknown key '{key}' in config file")
            raw.setdefault(key, val)

    for name in _REQUIRED[sub]:
        if name not in raw:
            raise UsageError(f"missing required flag '--{name}' for '{sub}'")

    params = {}
    for name, val in raw.items():
        try:
            params[name] = _FLAG_PARSERS[name](val)
        except (TypeError, ValueError):
            raise UsageError(f"bad value for '--{name}': '{val}'") from None

    seed = params.pop("seed", 0)
    out = Path(params.pop("out", "."))
    # kept so existing command lines work; sweeps run serially regardless
    threads = params.pop("threads", 1)
    if threads < 1:
        raise UsageError("'--threads' must be at least 1")
    if threads > 1:
        print(f"note: --threads {threads} has no effect; sweeps run serially",
              file=sys.stderr)
    return CliConfig(subcommand=sub, params=params, seed=seed, output_dir=out)


def _usage():
    return (
        "usage: demixcs <subcommand> [--flag value ...]\n"
        f"subcommands: {', '.join(SUBCOMMANDS)}\n"
        "common flags: --family --n --m --s --k --lambda --eps --trials\n"
        "              --setting --seed --p --nu --out --config\n"
        "sweeps: --s 1:100 (range) or --s 1,2,5 (list); --eps 0:0.1:0.01\n"
        "sweeps run serially; --threads N is accepted for compatibility only"
    )


def _write_manifest(cfg, extra=None):
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"subcommand = {cfg.subcommand}", f"seed = {cfg.seed}",
             f"version = {__version__}"]
    for key in sorted(cfg.params):
        lines.append(f"{key} = {cfg.params[key]}")
    for key in sorted(extra or {}):
        lines.append(f"{key} = {(extra or {})[key]}")
    path = cfg.output_dir / "run_manifest.txt"
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_model(cfg):
    model = build_family(cfg.params["family"], cfg.params["n"], cfg.params["m"],
                         cfg.seed)
    print(model.describe())
    print(f"coherence(A) = {coherence(model.A):.6g}")
    print(f"coherence(H) = {coherence(model.H):.6g}")
    _write_manifest(cfg)
    return 0


def _cmd_gen(cfg):
    p = cfg.params
    s, k = _single_int(p["s"], "s"), _single_int(p["k"], "k")
    noise_amp = _single_int(p.get("eps") or "0", "eps", float)
    model = build_family(p["family"], p["n"], p["m"], cfg.seed)
    inst = gen_instance(model, s, k,
                        p.get("setting", "gaussian"), noise_amp, cfg.seed,
                        noise_model=p.get("noise-model", "symmetric"))
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.output_dir / "instance.txt"
    io.save_instance(path, inst)
    print(f"wrote {path}")
    _write_manifest(cfg)
    return 0


def _cmd_solve(cfg):
    p = cfg.params
    eps = _single_int(p.get("eps") or "0", "eps", float)
    inst = io.load_instance(p["instance"])
    which = p.get("solver", "penalized_l1")
    if which == "penalized_l1":
        scfg = PenalizedL1Config(
            lambda_reg=p["lambda"], epsilon=eps,
            max_iter=p.get("max-iter", 20000), tol=p.get("tol", 1e-9))
        result = solve_penalized_l1(inst.model, inst.y, scfg)
    elif which == "irls_lp":
        icfg = IrlsConfig(p=p.get("p", 0.5), nu=p.get("nu", 1.0))
        result = solve_irls_lp(inst.model, inst.y, icfg)
    else:
        raise UsageError(f"unknown solver '{which}'")
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.output_dir / "result.txt"
    io.save_result(path, result)
    print(f"status={result.status} iterations={result.iterations} "
          f"residual={result.residual:.6g} objective={result.objective:.6g}")
    print(f"wrote {path}")
    _write_manifest(cfg)
    return 0


def _cmd_pt(cfg):
    p = cfg.params
    solver_cfg = PenalizedL1Config(
        lambda_reg=p.get("lambda", 1.0), epsilon=0.0,
        max_iter=p.get("max-iter", 20000), tol=p.get("tol", 1e-9))
    spec = PhaseTransitionSpec(
        family=canonical_family(p["family"]), n=p["n"], m=p["m"],
        s_values=parse_int_list(p["s"], "--s"),
        k_values=parse_int_list(p["k"], "--k"),
        trials=p["trials"], setting=p.get("setting", "gaussian"),
        lambda_reg=p.get("lambda", 1.0), solver_cfg=solver_cfg,
        master_seed=cfg.seed)
    table = run_phase_transition(spec)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.output_dir / "phase_transition.csv"
    svg_path = cfg.output_dir / "phase_transition.svg"
    emit_csv(table, csv_path)
    emit_plot(table, "success_vs_s", svg_path)
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    _write_manifest(cfg)
    return 0


def _cmd_stability(cfg):
    p = cfg.params
    solver_cfg = PenalizedL1Config(
        lambda_reg=p.get("lambda", 1.0), epsilon=0.0,
        max_iter=p.get("max-iter", 20000), tol=p.get("tol", 1e-9))
    solvers = tuple(p.get("solver", "penalized_l1,irls_lp").split(","))
    spec = StabilitySpec(
        family=canonical_family(p["family"]), n=p["n"], m=p["m"],
        s=_single_int(p["s"], "s"), k=_single_int(p["k"], "k"),
        eps_values=parse_float_list(p["eps"], "--eps"),
        trials=p["trials"], solvers=solvers,
        irls_cfg=IrlsConfig(p=p.get("p", 0.5), nu=p.get("nu", 1.0)),
        lambda_reg=p.get("lambda", 1.0), solver_cfg=solver_cfg,
        master_seed=cfg.seed)
    table = run_stability(spec)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.output_dir / "stability.csv"
    svg_path = cfg.output_dir / "stability.svg"
    emit_csv(table, csv_path)
    emit_plot(table, "error_vs_eps", svg_path)
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    _write_manifest(cfg)
    return 0


def _cmd_rip(cfg):
    p = cfg.params
    s, k = _single_int(p["s"], "s"), _single_int(p["k"], "k")
    budget = p.get("budget", rip.ENUM_BUDGET)
    model = build_family(p["family"], p["n"], p["m"], cfg.seed)
    cert = rip.certify_uniqueness(model, s, k, p.get("lambda", 1.0), budget)
    print(f"delta_2s2k = {cert.delta_2s2k:.6g}")
    print(f"eta = {cert.eta:.6g}")
    print(f"threshold = {cert.threshold:.6g}")
    print(f"satisfied = {'true' if cert.satisfied else 'false'}")
    print(f"witness_signal_support = {list(cert.skrip.witness_signal_support)}")
    print(f"witness_corruption_support = {list(cert.skrip.witness_corruption_support)}")
    if "support-csv" in p:
        a, h = materialize(model.A), materialize(model.H)
        rows = ["signal_support,corruption_support,eig_min,eig_max"]
        for sig, cor, emin, emax in rip.skrip_support_extremes(a, h, 2 * s, 2 * k, budget):
            rows.append('"%s","%s",%.17g,%.17g' % (
                " ".join(map(str, sig)), " ".join(map(str, cor)), emin, emax))
        sup_path = Path(p["support-csv"])
        sup_path.parent.mkdir(parents=True, exist_ok=True)
        with open(sup_path, "w", newline="\n") as fh:
            fh.write("\n".join(rows) + "\n")
        print(f"wrote {sup_path}")
    _write_manifest(cfg, extra={"delta_2s2k": "%.17g" % cert.delta_2s2k,
                                "satisfied": str(cert.satisfied).lower()})
    return 0


def _cmd_bounds(cfg):
    p = cfg.params
    s, k, delta = _single_int(p["s"], "s"), _single_int(p["k"], "k"), p["delta"]
    if p["theorem"] == 2:
        if "ntilde" not in p or "mu-b" not in p:
            raise UsageError("theorem 2 bounds need '--ntilde' and '--mu-b'")
        m_sig, m_cor = rip.sample_bound_modulated_frame(
            s, k, p["ntilde"], p["mu-b"], delta)
        print(f"m_signal >= {m_sig:.6g}")
        print(f"m_corruption >= {m_cor:.6g}")
    elif p["theorem"] == 3:
        if "n" not in p or "mu-g" not in p:
            raise UsageError("theorem 3 bounds need '--n' and '--mu-g'")
        rec = rip.sample_bound_subsampled(s, k, p["n"], p["mu-g"], delta)
        print(f"m_signal >= {rec.m_signal:.6g} "
              f"(terms: {', '.join('%.6g' % t for t in rec.m_signal_terms)})")
        print(f"m_corruption >= {rec.m_corruption:.6g}")
        print(f"m_upper <= {rec.m_upper:.6g}")
    else:
        raise UsageError("'--theorem' must be 2 or 3")
    _write_manifest(cfg)
    return 0


_DISPATCH = {
    "model": _cmd_model,
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "pt": _cmd_pt,
    "stability": _cmd_stability,
    "rip": _cmd_rip,
    "bounds": _cmd_bounds,
}


def dispatch(cfg):
    """Route a parsed config to its subcommand; returns the exit code."""
    return _DISPATCH[cfg.subcommand](cfg)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = parse_args(list(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        code = dispatch(cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DemixError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    # wall time goes to the log stream, not the manifest, so reruns stay
    # byte-identical
    print(f"wall_time_s = {time.perf_counter() - started:.2f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
