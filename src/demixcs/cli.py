"""Command-line surface: build models, generate instances, solve, sweep.

Flags are `--key value` pairs, each given at most once.  Each
subcommand takes its own set of flags, and some flags are read only for
one value of `--solver` or `--theorem`; `demixcs --help` prints the
tables, which `_FLAGS` and `_CHOICES` below hold.

`parse_args` converts each value once.  `pt`'s `--s` and `--k` and
stability's `--eps` take a sweep (a comma list or a range); stability's
`--solver` is a comma list and defaults to both solvers.  Every
subcommand also takes `--out dir`.  A flag that the subcommand, or the
chosen value, does not read is a usage error.  An omitted flag takes the
library's default.  Every run writes a `run_manifest.txt` with each flag
as given, the seed and the version, so outputs are attributable and
byte-identical when rerun.

Exit codes: 0 success, 1 computational error (also an invalid sweep spec,
an unreadable instance file or an unwritable output path), 2 usage error.
"""

import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__, io, rip
from .errors import DemixError, UsageError
from .linop import materialize
from .models import build_family, canonical_family, coherence, gen_instance
from .experiments import (
    PhaseTransitionSpec,
    ResultTable,
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
    "gen": (("family", "n", "m", "s", "k"), ("eps", "setting", "seed")),
    "solve": (("instance",), ("solver",)),
    "pt": (("family", "n", "m", "s", "k", "trials"),
           ("lambda", "setting", "max-iter", "tol", "seed", "threads")),
    "stability": (("family", "n", "m", "s", "k", "eps", "trials"),
                  ("solver", "seed", "threads")),
    "rip": (("family", "n", "m", "s", "k"), ("lambda", "support-csv", "seed")),
    "bounds": (("theorem", "s", "k", "delta"), ()),
}
_COMMON = ("out",)

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

# numeric flags, each one value; every other value stays text
_PARSERS = {
    "n": int, "m": int, "s": int, "k": int, "trials": int, "seed": int, "threads": int,
    "ntilde": int, "max-iter": int,
    "lambda": float, "eps": float, "p": float, "nu": float, "mu-b": float, "mu-g": float,
    "delta": float, "tol": float,
}

# the most values a range may give, so a sweep is refused before it is built
_MAX_SWEEP = 10**6

# the one default the library leaves to its callers
_LAMBDA = 1.0


@dataclass
class CliConfig:
    subcommand: str
    params: dict
    seed: int
    output_dir: Path
    given: dict  # each flag's text as given, except --seed, --out and --threads


def _range(text, flag, count, value):
    """value(0), ..., value(count - 1); a count outside 1.._MAX_SWEEP is refused."""
    if not 1 <= count <= _MAX_SWEEP:
        raise UsageError(f"{flag} range '{text}' must give 1 to {_MAX_SWEEP} values")
    return tuple(value(i) for i in range(count))


def parse_int_list(text, flag):
    """Sweep syntax: 'a,b,c' or inclusive range 'a:b'."""
    try:
        if ":" not in text:
            return tuple(int(p) for p in text.split(","))
        lo, hi = (int(p) for p in text.split(":"))
    except ValueError:
        raise UsageError(f"cannot parse {flag} value '{text}'") from None
    return _range(text, flag, hi - lo + 1, lambda i: lo + i)


def parse_float_list(text, flag):
    """Sweep syntax: 'a,b,c' or 'start:stop:step' (inclusive, rounded)."""
    try:
        if ":" not in text:
            return tuple(float(p) for p in text.split(","))
        lo, hi, step = (float(p) for p in text.split(":"))
        span = (hi - lo) / step
        if not all(map(math.isfinite, (lo, hi, step, span))):
            raise ValueError
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse {flag} value '{text}'") from None
    return _range(text, flag, round(span) + 1, lambda i: round(lo + i * step, 12))


# subcommand -> {flag: parser} for the flags that take a list there
_LIST_PARSERS = {
    "pt": {"s": parse_int_list, "k": parse_int_list},
    "stability": {"eps": parse_float_list, "solver": lambda text, flag: tuple(text.split(","))},
}


def _parse(sub, name, text):
    """The typed value of one flag of subcommand `sub`."""
    parse_list = _LIST_PARSERS.get(sub, {}).get(name)
    if parse_list:
        return parse_list(text, f"--{name}")
    try:
        return _PARSERS.get(name, str)(text)
    except ValueError:
        raise UsageError(f"bad value for '--{name}': '{text}'") from None


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
        if name in raw:
            raise UsageError(f"flag '--{name}' given twice")
        raw[name] = argv[i + 1]
        i += 2

    for name in required:
        if name not in raw:
            raise UsageError(f"missing required flag '--{name}' for '{sub}'")
    params = {name: _parse(sub, name, text) for name, text in raw.items()}
    if rows:
        _check_choice(sub, params)

    seed = params.pop("seed", 0)
    out = Path(params.pop("out", "."))
    # kept so existing command lines work; sweeps run serially regardless
    threads = params.pop("threads", 1)
    if threads < 1:
        raise UsageError("'--threads' must be at least 1")
    if threads > 1:
        print(f"note: --threads {threads} has no effect; sweeps run serially",
              file=sys.stderr)
    return CliConfig(subcommand=sub, params=params, seed=seed, output_dir=out,
                     given={name: raw[name] for name in params})


def _row_flags(rows):
    """Every flag named in a {value: (required, optional)} table."""
    return {name for required, optional in rows.values() for name in required + optional}


def _check_choice(sub, params):
    """Refuse the flags that the chosen values do not read; require theirs."""
    choice, rows = _CHOICES[sub]
    if sub == "stability":
        values = params.get(choice, tuple(rows))
    else:
        values = (params.get(choice, next(iter(rows))),)
    for value in values:
        if value not in rows:
            raise UsageError(f"'--{choice}' must be one of {', '.join(rows)}, got '{value}'")
    chosen = {value: rows[value] for value in values}
    label = f"'{sub} --{choice} {','.join(values)}'"
    refused = _row_flags(rows) - _row_flags(chosen)
    for name in params:
        if name in refused:
            raise UsageError(f"{label} takes no flag '--{name}'")
    for required, _ in chosen.values():
        for name in required:
            if name not in params:
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
        + "; any other flag is a usage error",
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
    """Write each (path, writer), then the manifest into the output directory.

    A write that fails removes the files written before it, so a failed
    run leaves none behind.
    """
    header = [("subcommand", cfg.subcommand), ("seed", cfg.seed), ("version", __version__)]
    for entries in (cfg.given, extra or {}):
        header += sorted(entries.items())
    written = []
    try:
        for path, write in files:
            write(path)
            written.append(path)
        io.write_record(cfg.output_dir / "run_manifest.txt", header)
    except DemixError:
        for path in written:
            path.unlink()
        raise
    for path in written:
        print(f"wrote {path}")


def _cmd_model(cfg):
    model = build_family(cfg.params["family"], cfg.params["n"], cfg.params["m"],
                         cfg.seed)
    print(model.describe())
    print(f"coherence(A) = {coherence(model.A):.6g}")
    print(f"coherence(H) = {coherence(model.H):.6g}")
    _emit(cfg)


def _cmd_gen(cfg):
    p = cfg.params
    model = build_family(p["family"], p["n"], p["m"], cfg.seed)
    inst = gen_instance(model, p["s"], p["k"], p.get("setting", "gaussian"),
                        p.get("eps", 0.0), cfg.seed)
    _emit(cfg, (cfg.output_dir / "instance.txt", lambda path: io.save_instance(path, inst)))


def _cmd_solve(cfg):
    p = cfg.params
    if p.get("solver") == "irls_lp":
        solve, solver_cfg = solve_irls_lp, _irls_config(p)
    else:
        solve, solver_cfg = solve_penalized_l1, _l1_config(p, **_given(p, epsilon="eps"))
    inst = io.load_instance(p["instance"])
    result = solve(inst.model, inst.y, solver_cfg)
    print(f"status={result.status} iterations={result.iterations} "
          f"residual={result.residual:.6g} objective={result.objective:.6g}")
    _emit(cfg, (cfg.output_dir / "result.txt", lambda path: io.save_result(path, result)))


def _cmd_pt(cfg):
    p = cfg.params
    spec = PhaseTransitionSpec(
        family=canonical_family(p["family"]), n=p["n"], m=p["m"],
        s_values=p["s"], k_values=p["k"], trials=p["trials"],
        setting=p.get("setting", "gaussian"), solver_cfg=_l1_config(p),
        master_seed=cfg.seed)
    table = run_phase_transition(spec)
    out = cfg.output_dir
    _emit(cfg, (out / "phase_transition.csv", lambda path: emit_csv(table, path)),
          (out / "phase_transition.svg", lambda path: emit_plot(table, "success_vs_s", path)))


def _cmd_stability(cfg):
    p = cfg.params
    solver_cfg = _l1_config(p)
    spec = StabilitySpec(
        family=canonical_family(p["family"]), n=p["n"], m=p["m"],
        s=p["s"], k=p["k"], eps_values=p["eps"], trials=p["trials"],
        irls_cfg=_irls_config(p), lambda_reg=solver_cfg.lambda_reg, solver_cfg=solver_cfg,
        master_seed=cfg.seed, **_given(p, solvers="solver"))
    table = run_stability(spec)
    out = cfg.output_dir
    _emit(cfg, (out / "stability.csv", lambda path: emit_csv(table, path)),
          (out / "stability.svg", lambda path: emit_plot(table, "error_vs_eps", path)))


def _cmd_rip(cfg):
    p = cfg.params
    model = build_family(p["family"], p["n"], p["m"], cfg.seed)
    cert = rip.certify_uniqueness(model, p["s"], p["k"], p.get("lambda", _LAMBDA))
    print(f"delta_2s2k = {cert.delta_2s2k:.6g}")
    print(f"eta = {cert.eta:.6g}")
    print(f"threshold = {cert.threshold:.6g}")
    print(f"satisfied = {'true' if cert.satisfied else 'false'}")
    print(f"witness_signal_support = {list(cert.skrip.witness_signal_support)}")
    print(f"witness_corruption_support = {list(cert.skrip.witness_corruption_support)}")
    files = []
    if "support-csv" in p:
        a, h = materialize(model.A), materialize(model.H)
        columns = ("signal_support", "corruption_support", "eig_min", "eig_max")
        table = ResultTable(columns=columns, provenance={}, rows=[
            (" ".join(map(str, sig)), " ".join(map(str, cor)), emin, emax)
            for sig, cor, emin, emax in rip.skrip_support_extremes(a, h, 2 * p["s"], 2 * p["k"])])
        files.append((Path(p["support-csv"]), lambda path: emit_csv(table, path)))
    _emit(cfg, *files, extra={"delta_2s2k": "%.17g" % cert.delta_2s2k,
                              "satisfied": str(cert.satisfied).lower()})


def _cmd_bounds(cfg):
    p = cfg.params
    s, k, delta = p["s"], p["k"], p["delta"]
    if p["theorem"] == "2":
        m_sig, m_cor = rip.sample_bound_modulated_frame(s, k, p["ntilde"], p["mu-b"], delta)
        print(f"m_signal >= {m_sig:.6g}")
        print(f"m_corruption >= {m_cor:.6g}")
    else:
        rec = rip.sample_bound_subsampled(s, k, p["n"], p["mu-g"], delta)
        print(f"m_signal >= {rec.m_signal:.6g} "
              f"(terms: {', '.join('%.6g' % t for t in rec.m_signal_terms)})")
        print(f"m_corruption >= {rec.m_corruption:.6g}")
        print(f"m_upper <= {rec.m_upper:.6g}")
    _emit(cfg)


_DISPATCH = {
    "model": _cmd_model,
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "pt": _cmd_pt,
    "stability": _cmd_stability,
    "rip": _cmd_rip,
    "bounds": _cmd_bounds,
}


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
        _DISPATCH[cfg.subcommand](cfg)
    except DemixError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    # wall time goes to the log stream, not the manifest, so reruns stay
    # byte-identical
    print(f"wall_time_s = {time.perf_counter() - started:.2f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
