"""Command-line surface: build models, generate instances, solve, sweep.

Flags are `--key value` pairs, and each subcommand takes its own set
(required, then [optional]):

    model      --family --n --m [--seed]
    gen        --family --n --m --s --k [--eps --setting --noise-model --seed]
    solve      --instance [--solver]
    pt         --family --n --m --s --k --trials
               [--lambda --setting --max-iter --tol --seed --threads]
    stability  --family --n --m --s --k --eps --trials [--solver --seed --threads]
    rip        --family --n --m --s --k [--lambda --budget --support-csv --seed]
    bounds     --theorem --s --k --delta

Some flags are read only for one value of another flag:

    solve --solver penalized_l1 (default)  [--lambda --eps --max-iter --tol]
    solve --solver irls_lp                 [--p --nu]
    stability --solver penalized_l1        [--lambda --max-iter --tol]
    stability --solver irls_lp             [--p --nu]
    bounds --theorem 2                     --ntilde --mu-b
    bounds --theorem 3                     --n --mu-g

Stability's `--solver` is a comma list and defaults to both solvers.
Every subcommand also takes `--config file` and `--out dir`.  The config
file holds `key = value` lines, each key at most once, and explicit
flags override them.  A flag or config key that the subcommand, or the
chosen value, does not read is a usage error.  An omitted flag takes
the library's default.  Every run writes a `run_manifest.txt` with the
flags given, the seed and the version, so outputs are attributable and
byte-identical when rerun.

Exit codes: 0 success, 1 computational error (also an invalid sweep spec,
an unreadable instance file or an unwritable output path), 2 usage error.
"""

import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, io, rip
from .errors import DemixError, FormatError, UsageError
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

# subcommand -> (required flags, optional flags); `_COMMON` flags apply to all
_FLAGS = {
    "model": (("family", "n", "m"), ("seed",)),
    "gen": (("family", "n", "m", "s", "k"), ("eps", "setting", "noise-model", "seed")),
    "solve": (("instance",), ("solver",)),
    "pt": (("family", "n", "m", "s", "k", "trials"),
           ("lambda", "setting", "max-iter", "tol", "seed", "threads")),
    "stability": (("family", "n", "m", "s", "k", "eps", "trials"),
                  ("solver", "seed", "threads")),
    "rip": (("family", "n", "m", "s", "k"), ("lambda", "budget", "support-csv", "seed")),
    "bounds": (("theorem", "s", "k", "delta"), ()),
}
_COMMON = ("config", "out")

# subcommand -> (choosing flag, {value: (required flags, optional flags)}):
# the flags read only for some values of the choosing flag.  The first
# value is the default, except that stability's --solver takes a comma
# list and defaults to every solver.
_CHOICES = {
    "solve": ("solver", {"penalized_l1": ((), ("lambda", "eps", "max-iter", "tol")),
                         "irls_lp": ((), ("p", "nu"))}),
    "stability": ("solver", {"penalized_l1": ((), ("lambda", "max-iter", "tol")),
                             "irls_lp": ((), ("p", "nu"))}),
    "bounds": ("theorem", {"2": (("ntilde", "mu-b"), ()), "3": (("n", "mu-g"), ())}),
}
SUBCOMMANDS = tuple(_FLAGS)

# numeric flags; every other value stays text for its subcommand to read
_PARSERS = {
    "n": int, "m": int, "trials": int, "seed": int, "threads": int,
    "theorem": int, "ntilde": int, "budget": int, "max-iter": int,
    "lambda": float, "p": float, "nu": float, "mu-b": float, "mu-g": float,
    "delta": float, "tol": float,
}

# the one default the library leaves to its callers
_LAMBDA = 1.0


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
    required, optional = _FLAGS[sub]
    _, rows = _CHOICES.get(sub, (None, {}))
    accepted = set(required + optional + _COMMON) | _row_flags(rows)

    raw = {}
    i = 1
    while i < len(argv):
        tok = argv[i]
        if not tok.startswith("--"):
            raise UsageError(f"expected a --flag, got '{tok}'")
        name = tok[2:]
        if name not in accepted:
            raise UsageError(f"'{sub}' takes no flag '--{name}'")
        if i + 1 >= len(argv):
            raise UsageError(f"flag '--{name}' needs a value")
        raw[name] = argv[i + 1]
        i += 2

    if "config" in raw:
        try:
            values, blocks = io.read_record(raw.pop("config"))
        except FormatError as exc:
            raise UsageError(f"config file: {exc}") from None
        if blocks:
            raise UsageError(f"config file holds a block '[{next(iter(blocks))}]'")
        for key, val in values.items():
            if key == "config" or key not in accepted:
                raise UsageError(f"config file key '{key}' is not a flag of '{sub}'")
            raw.setdefault(key, val)

    for name in required:
        if name not in raw:
            raise UsageError(f"missing required flag '--{name}' for '{sub}'")
    if rows:
        _check_choice(sub, raw)

    params = {}
    for name, val in raw.items():
        try:
            params[name] = _PARSERS.get(name, str)(val)
        except ValueError:
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


def _row_flags(rows):
    """Every flag named in a {value: (required, optional)} table."""
    return {name for required, optional in rows.values() for name in required + optional}


def _check_choice(sub, raw):
    """Refuse the flags that the chosen values do not read; require theirs."""
    choice, rows = _CHOICES[sub]
    if sub == "stability":
        values = raw[choice].split(",") if choice in raw else list(rows)
    else:
        values = [raw.get(choice, next(iter(rows)))]
    for value in values:
        if value not in rows:
            raise UsageError(f"'--{choice}' must be one of {', '.join(rows)}, got '{value}'")
    chosen = {value: rows[value] for value in values}
    label = f"'{sub} --{choice} {','.join(values)}'"
    refused = _row_flags(rows) - _row_flags(chosen)
    for name in raw:
        if name in refused:
            raise UsageError(f"{label} takes no flag '--{name}'")
    for required, _ in chosen.values():
        for name in required:
            if name not in raw:
                raise UsageError(f"missing required flag '--{name}' for {label}")


def _flag_list(required, optional):
    flags = " ".join(f"--{name}" for name in required)
    if optional:
        flags += " [" + " ".join(f"--{name}" for name in optional) + "]"
    return flags.strip()


def _usage():
    lines = ["usage: demixcs <subcommand> [--flag value ...]"]
    for sub, (required, optional) in _FLAGS.items():
        lines.append(f"  {sub:<10} {_flag_list(required, optional)}")
    for sub, (choice, rows) in _CHOICES.items():
        for value, row in rows.items():
            lines.append(f"  {sub} --{choice} {value} also reads {_flag_list(*row)}")
    lines += [
        "every subcommand takes " + " and ".join(f"--{name}" for name in _COMMON)
        + "; any other flag, or config file key, is a usage error",
        "sweeps: --s 1:100 (range) or --s 1,2,5 (list); --eps 0:0.1:0.01",
        "sweeps run serially; --threads N is accepted for compatibility only",
    ]
    return "\n".join(lines)


def _given(params, /, **flags):
    """Keyword arguments (keyword=flag) for the flags that were given."""
    return {key: params[flag] for key, flag in flags.items() if flag in params}


def _l1_config(p, **extra):
    return PenalizedL1Config(lambda_reg=p.get("lambda", _LAMBDA), **extra,
                             **_given(p, max_iter="max-iter", tol="tol"))


def _irls_config(p):
    return IrlsConfig(**_given(p, p="p", nu="nu"))


def _emit(cfg, *files, extra=None):
    """Write each (name, writer) into the output directory, then the manifest."""
    for name, write in files:
        path = cfg.output_dir / name
        write(path)
        print(f"wrote {path}")
    header = [("subcommand", cfg.subcommand), ("seed", cfg.seed), ("version", __version__)]
    for entries in (cfg.params, extra or {}):
        header += sorted(entries.items())
    io.write_record(cfg.output_dir / "run_manifest.txt", header)


def _cmd_model(cfg):
    model = build_family(cfg.params["family"], cfg.params["n"], cfg.params["m"],
                         cfg.seed)
    print(model.describe())
    print(f"coherence(A) = {coherence(model.A):.6g}")
    print(f"coherence(H) = {coherence(model.H):.6g}")
    _emit(cfg)
    return 0


def _cmd_gen(cfg):
    p = cfg.params
    s, k = _single_int(p["s"], "s"), _single_int(p["k"], "k")
    noise_amp = _single_int(p.get("eps") or "0", "eps", float)
    model = build_family(p["family"], p["n"], p["m"], cfg.seed)
    inst = gen_instance(model, s, k, p.get("setting", "gaussian"), noise_amp, cfg.seed,
                        **_given(p, noise_model="noise-model"))
    _emit(cfg, ("instance.txt", lambda path: io.save_instance(path, inst)))
    return 0


def _cmd_solve(cfg):
    p = cfg.params
    if p.get("solver") == "irls_lp":
        solve, solver_cfg = solve_irls_lp, _irls_config(p)
    else:
        eps = {"epsilon": _single_int(p["eps"], "eps", float)} if "eps" in p else {}
        solve, solver_cfg = solve_penalized_l1, _l1_config(p, **eps)
    inst = io.load_instance(p["instance"])
    result = solve(inst.model, inst.y, solver_cfg)
    print(f"status={result.status} iterations={result.iterations} "
          f"residual={result.residual:.6g} objective={result.objective:.6g}")
    _emit(cfg, ("result.txt", lambda path: io.save_result(path, result)))
    return 0


def _cmd_pt(cfg):
    p = cfg.params
    solver_cfg = _l1_config(p)
    spec = PhaseTransitionSpec(
        family=canonical_family(p["family"]), n=p["n"], m=p["m"],
        s_values=parse_int_list(p["s"], "--s"),
        k_values=parse_int_list(p["k"], "--k"),
        trials=p["trials"], setting=p.get("setting", "gaussian"),
        lambda_reg=solver_cfg.lambda_reg, solver_cfg=solver_cfg,
        master_seed=cfg.seed)
    table = run_phase_transition(spec)
    _emit(cfg, ("phase_transition.csv", lambda path: emit_csv(table, path)),
          ("phase_transition.svg", lambda path: emit_plot(table, "success_vs_s", path)))
    return 0


def _cmd_stability(cfg):
    p = cfg.params
    solver_cfg = _l1_config(p)
    solvers = {"solvers": tuple(p["solver"].split(","))} if "solver" in p else {}
    spec = StabilitySpec(
        family=canonical_family(p["family"]), n=p["n"], m=p["m"],
        s=_single_int(p["s"], "s"), k=_single_int(p["k"], "k"),
        eps_values=parse_float_list(p["eps"], "--eps"),
        trials=p["trials"], irls_cfg=_irls_config(p),
        lambda_reg=solver_cfg.lambda_reg, solver_cfg=solver_cfg,
        master_seed=cfg.seed, **solvers)
    table = run_stability(spec)
    _emit(cfg, ("stability.csv", lambda path: emit_csv(table, path)),
          ("stability.svg", lambda path: emit_plot(table, "error_vs_eps", path)))
    return 0


def _cmd_rip(cfg):
    p = cfg.params
    s, k = _single_int(p["s"], "s"), _single_int(p["k"], "k")
    budget = p.get("budget", rip.ENUM_BUDGET)
    model = build_family(p["family"], p["n"], p["m"], cfg.seed)
    cert = rip.certify_uniqueness(model, s, k, p.get("lambda", _LAMBDA), budget)
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
        io.write_lines(sup_path, rows)
        print(f"wrote {sup_path}")
    _emit(cfg, extra={"delta_2s2k": "%.17g" % cert.delta_2s2k,
                      "satisfied": str(cert.satisfied).lower()})
    return 0


def _cmd_bounds(cfg):
    p = cfg.params
    s, k, delta = _single_int(p["s"], "s"), _single_int(p["k"], "k"), p["delta"]
    if p["theorem"] == 2:
        m_sig, m_cor = rip.sample_bound_modulated_frame(
            s, k, p["ntilde"], p["mu-b"], delta)
        print(f"m_signal >= {m_sig:.6g}")
        print(f"m_corruption >= {m_cor:.6g}")
    else:
        rec = rip.sample_bound_subsampled(s, k, p["n"], p["mu-g"], delta)
        print(f"m_signal >= {rec.m_signal:.6g} "
              f"(terms: {', '.join('%.6g' % t for t in rec.m_signal_terms)})")
        print(f"m_corruption >= {rec.m_corruption:.6g}")
        print(f"m_upper <= {rec.m_upper:.6g}")
    _emit(cfg)
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
