"""The four benchmark workloads and the correctness check of each.

Every workload drives demixcs only through its public surfaces: the CLI
entry point `demixcs.cli.main` called in-process, or the sweep API
`demixcs.experiments.run_stability` plus `emit_csv`.  A *job* is the unit
whose wall time is measured.  Program seeds are derived from the
benchmark seed; `--seed 0` reproduces the defaults named below.  A run
measures whole rounds of jobs; each workload names its round's seeds.

Why each workload exists:

* pt-desk: the CLI desk phase-transition sweep users run.  PDHG at
  eps = 0 on a working set that fits in L2; about a third of its columns
  run to max_iter, so iteration counts show here.  It is the only
  workload through the experiments thread pool (2 threads).
* stability-paper: the criterion-6 protocol at paper scale (n = 512),
  trimmed to two noise levels.  Iterates overflow a core's L2; IRLS
  conjugate-gradient steps dominate and PDHG takes its eps-ball branch.
  Single-threaded baseline.  Uses the library because the CLI cannot set
  the IRLS protocol.
* certify-ofdm: one exact certificate, 246,016 support pairs; nearly all
  time is the rip enumerator.  Solver and operator changes must leave it
  unchanged.
* cli-ofdm: `gen` then `solve` through instance files; PDHG at batch
  width 1 on a complex FFT family, where fixed per-call cost dominates.
  The only workload through `io`.  Its instance set is fixed; see
  `CliOfdm.round_seeds`.
"""

import contextlib
import hashlib
import io as _stdio
import math
from pathlib import Path

import numpy as np

# delta_2s2k of the certify-ofdm certificate at commit 3ad7697.  With
# m = n the cs-ofdm model keeps every row, so it and this value do not
# depend on the program seed (seeds 11..138 all gave this value).
CERTIFY_DELTA_2S2K = 0.35355339059327506

# Criterion-5d plateau: every cell with s <= PLATEAU_CUT recovers.
PLATEAU_CUT = 5


class CheckFailed(Exception):
    """A workload's outputs are wrong."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_cli(argv):
    """demixcs.cli.main in-process; returns (exit code, stdout text)."""
    from demixcs import cli

    out = _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_stdio.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def nan_rows(table):
    return [row for row in table.rows
            if any(isinstance(v, float) and math.isnan(v) for v in row)]


def pt_checks(table, trials):
    """Criterion-5d plateau, tail and k-order checks on a PT table.

    A copy of tests/test_acceptance.py::_pt_checks, which the benchmark
    cannot import from; a change to the gate goes into both.
    """
    cols = table.columns
    i_s, i_k, i_f = cols.index("s"), cols.index("k"), cols.index("success_fraction")
    margin = 3.0 / math.sqrt(trials)
    plateau = all(row[i_f] >= 0.95 for row in table.rows if row[i_s] <= PLATEAU_CUT)
    tail = all(row[i_f] <= 0.05 for row in table.rows if row[i_s] == 100)
    curves = {}
    for row in table.rows:
        curves.setdefault(row[i_k], {})[row[i_s]] = row[i_f]
    ks = sorted(curves)
    order = all(curves[small][s] >= curves[large][s] - margin
                for small, large in zip(ks, ks[1:]) for s in curves[small])
    return plateau, tail, order


def stability_checks(table):
    """Both solvers present; irls_lp mean error <= 3x penalized_l1 at every eps."""
    cols = table.columns
    i_solver, i_eps, i_mean = (cols.index(c) for c in ("solver", "eps_amp", "mean_error"))
    series = {}
    for row in table.rows:
        series.setdefault(row[i_solver], {})[float(row[i_eps])] = float(row[i_mean])
    require(set(series) == {"penalized_l1", "irls_lp"},
            f"stability CSV has solvers {sorted(series)}")
    for eps, l1 in series["penalized_l1"].items():
        irls = series["irls_lp"][eps]
        require(irls <= 3.0 * l1, f"irls_lp error {irls} > 3x penalized_l1 {l1} at eps={eps}")
    return series


def noiseless_checks(name, errors, successes):
    """eps = 0: every column passes check_success; p90 column error <= 1e-6.

    The p90 rather than the mean: a sweep may hold a PDHG column that
    stops at max_iter with an error near 3e-4 (about one seed in five),
    which alone lifts the mean above 1e-6 though the column recovers.
    """
    require(all(successes), f"{name}: {len(successes) - sum(successes)} noiseless "
            "columns fail check_success")
    p90 = float(np.quantile(errors, 0.9))
    require(p90 <= 1e-6, f"{name} p90 error at eps=0 is {p90}, above 1e-6")


def load_result(path):
    """Read a result.txt written by demixcs.io.save_result."""
    from demixcs.io import parse_vector_lines
    from demixcs.solvers import SolveResult

    header, blocks, current = {}, {}, None
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            blocks[current] = []
        elif current is None:
            key, _, val = line.partition("=")
            header[key.strip()] = val.strip()
        else:
            blocks[current].append(line)
    return SolveResult(
        x_hat=parse_vector_lines(blocks["x_hat"]), z_hat=parse_vector_lines(blocks["z_hat"]),
        iterations=int(header["iterations"]), residual=float(header["residual"]),
        objective=float(header["objective"]), status=header["status"])


def captured_columns(result_lists, instances):
    """(instance, result) per solved column, pairing columns with draws by y."""
    for y, results in result_lists:
        for j, res in enumerate(results):
            yield instances[np.ascontiguousarray(y[:, j]).tobytes()], res


def recovery_error(inst, res):
    return float(np.linalg.norm(res.x_hat - inst.x_true)
                 + np.linalg.norm(res.z_hat - inst.z_true))


class Workload:
    """One workload: its job, the families its set-up builds, its check."""

    name = ""
    families = ()      # (family, n, m) built and applied once by set-up
    captures = False   # verify reads the solver outcomes the probe keeps

    def round_seeds(self, seed, r):
        """Program seeds of round `r`; a run measures whole rounds."""
        raise NotImplementedError

    def run_job(self, program_seed, workdir):
        """Run one job; return what verify needs (untimed work goes there)."""
        raise NotImplementedError

    def verify(self, jobs, probe):
        """Check every job's outputs; return (quality metrics, hashes, facts)."""
        raise NotImplementedError


class PtDesk(Workload):
    name = "pt-desk"
    families = (("mtx1", 128, 64),)
    captures = True
    trials = 50

    def round_seeds(self, seed, r):
        return [7 + seed]

    def run_job(self, program_seed, workdir):
        code, _ = run_cli(["pt", "--family", "mtx1", "--n", 128, "--m", 64,
                           "--s", "1,2,3,4,5,20,40,100", "--k", "4,8",
                           "--trials", self.trials, "--lambda", 1, "--max-iter", 2000,
                           "--tol", 1e-9, "--seed", program_seed, "--threads", 2,
                           "--out", workdir])
        return {"code": code}

    def verify(self, jobs, probe):
        from demixcs.experiments import parse_csv
        from demixcs.solvers import check_success

        attempted = failed = 0
        rates, hashes = [], {}
        for job in jobs:
            wd = Path(job["workdir"])
            require(job["code"] == 0, f"pt exited {job['code']}")
            table = parse_csv(wd / "phase_transition.csv")
            i_f = table.columns.index("success_fraction")
            cells = len(table.rows)
            attempted += cells * self.trials
            bad = nan_rows(table)
            failed += len(bad) * self.trials
            plateau, tail, order = pt_checks(table, self.trials)
            require(plateau and tail and order,
                    f"criterion 5d on seed {job['seed']}: plateau={plateau} "
                    f"tail={tail} k-order={order}")
            rates.append(sum(row[i_f] for row in table.rows if row not in bad) / cells)
            for f in ("phase_transition.csv", "phase_transition.svg", "run_manifest.txt"):
                hashes[f"{job['seed']}/{f}"] = sha256(wd / f)
        hits = [check_success(res, inst)
                for inst, res in captured_columns(probe.pdhg, probe.instances)]
        require(len(hits) == attempted - failed,
                f"captured {len(hits)} solved columns, CSV accounts for {attempted - failed}")
        captured = sum(hits) / max(len(hits), 1)
        require(abs(captured - float(np.mean(rates))) < 1e-12,
                f"CSV success rate {np.mean(rates)} differs from check_success {captured}")
        return {"recovery_rate": float(np.mean(rates))}, hashes, {
            "attempted": attempted, "failed": failed}


class StabilityPaper(Workload):
    name = "stability-paper"
    families = (("mtx1", 512, 256),)
    captures = True

    def round_seeds(self, seed, r):
        return [3 + seed]

    def spec(self, program_seed):
        from demixcs.experiments import StabilitySpec
        from demixcs.solvers import IrlsConfig, PenalizedL1Config

        return StabilitySpec(
            family="modulated-hadamard", n=512, m=256, s=10, k=10,
            eps_values=(0.0, 0.1), trials=50, solvers=("penalized_l1", "irls_lp"),
            irls_cfg=IrlsConfig(p=0.5, nu=1.0, outer_max=30, cg_tol=1e-9, cg_max=500),
            lambda_reg=1.0,
            solver_cfg=PenalizedL1Config(lambda_reg=1.0, epsilon=0.0, max_iter=4000, tol=1e-9),
            master_seed=program_seed)

    def run_job(self, program_seed, workdir):
        from demixcs import experiments

        Path(workdir).mkdir(parents=True, exist_ok=True)
        table = experiments.run_stability(self.spec(program_seed), threads=1)
        experiments.emit_csv(table, Path(workdir) / "stability.csv")
        return {"code": 0}

    def verify(self, jobs, probe):
        from demixcs.experiments import parse_csv
        from demixcs.solvers import check_success

        columns = {}
        for name, captured in (("penalized_l1", probe.pdhg), ("irls_lp", probe.irls)):
            for inst, res in captured_columns(captured, probe.instances):
                columns.setdefault((name, inst.noise_amp), []).append(
                    (recovery_error(inst, res), check_success(res, inst)))
        noiseless = []
        for name in ("penalized_l1", "irls_lp"):
            cols = columns.get((name, 0.0), [])
            require(cols, f"no noiseless {name} solves were captured")
            noiseless_checks(name, [e for e, _ in cols], [ok for _, ok in cols])
            noiseless += [ok for _, ok in cols]

        attempted = failed = 0
        errors, hashes = {"penalized_l1": [], "irls_lp": []}, {}
        for job in jobs:
            path = Path(job["workdir"]) / "stability.csv"
            table = parse_csv(path)
            trials = int(table.rows[0][table.columns.index("trials")])
            attempted += len(table.rows) * trials
            failed += len(nan_rows(table)) * trials
            for name, errs in stability_checks(table).items():
                for eps, mean in errs.items():
                    solved = np.mean([e for e, _ in columns[(name, eps)]])
                    require(abs(mean - solved) <= 1e-9 * max(solved, 1e-300),
                            f"CSV mean error {mean} for {name} at eps={eps} differs "
                            f"from the solved columns' {solved}")
                errors[name].append(float(np.mean(list(errs.values()))))
            hashes[f"{job['seed']}/stability.csv"] = sha256(path)
        return {"recovery_rate": sum(noiseless) / len(noiseless),
                "error_l1": float(np.mean(errors["penalized_l1"])),
                "error_irls": float(np.mean(errors["irls_lp"]))}, hashes, {
            "attempted": attempted, "failed": failed}


class CertifyOfdm(Workload):
    name = "certify-ofdm"
    families = (("cs-ofdm", 32, 32),)

    def round_seeds(self, seed, r):
        return [11 + seed + r]

    def run_job(self, program_seed, workdir):
        code, text = run_cli(["rip", "--family", "cs-ofdm", "--n", 32, "--m", 32,
                              "--s", 1, "--k", 1, "--lambda", 1,
                              "--seed", program_seed, "--out", workdir])
        return {"code": code, "stdout": text}

    def verify(self, jobs, probe):
        hashes = {}
        for job in jobs:
            require(job["code"] == 0, f"rip exited {job['code']} for seed {job['seed']}")
            manifest = Path(job["workdir"]) / "run_manifest.txt"
            fields = dict(line.split(" = ", 1) for line in manifest.read_text().splitlines())
            require(fields["satisfied"] == "true" and "satisfied = true" in job["stdout"],
                    f"certificate for seed {job['seed']} not satisfied")
            delta = float(fields["delta_2s2k"])
            require(abs(delta - CERTIFY_DELTA_2S2K) <= 1e-9,
                    f"delta_2s2k {delta!r} for seed {job['seed']} differs from "
                    f"{CERTIFY_DELTA_2S2K!r}")
            hashes[f"{job['seed']}/run_manifest.txt"] = sha256(manifest)
            hashes[f"{job['seed']}/stdout"] = hashlib.sha256(job["stdout"].encode()).hexdigest()
        return {"recovery_rate": 1.0}, hashes, {"attempted": len(jobs), "failed": 0}


class CliOfdm(Workload):
    name = "cli-ofdm"
    families = (("cs-ofdm", 256, 128),)
    instances = 48

    def round_seeds(self, seed, r):
        # A round is one pass over the fixed instance set S = 0..47, and the
        # benchmark seed only rotates the order.  Solve time per instance
        # spans two orders of magnitude (about 120 to 8000 PDHG iterations
        # in this set, up to max_iter for other seeds), so a run-sized
        # sample drawn afresh per seed moves the median by about 13% and
        # the p90 by 24%.
        return [(seed + i) % self.instances for i in range(self.instances)]

    def run_job(self, program_seed, workdir):
        gen = run_cli(["gen", "--family", "cs-ofdm", "--n", 256, "--m", 128,
                       "--s", 4, "--k", 4, "--seed", program_seed, "--out", workdir])[0]
        solve = run_cli(["solve", "--instance", Path(workdir) / "instance.txt",
                         "--lambda", 1, "--eps", 0, "--out", workdir])[0]
        return {"code": gen or solve, "codes": (gen, solve)}

    def verify(self, jobs, probe):
        from demixcs.io import load_instance
        from demixcs.solvers import check_success

        bad = [(job["seed"], job["codes"]) for job in jobs if job["codes"] != (0, 0)]
        require(not bad, f"gen/solve exit codes (seed, codes): {bad}")
        hashes, hits = {}, 0
        for job in jobs:
            wd = Path(job["workdir"])
            inst = load_instance(wd / "instance.txt")
            ok = check_success(load_result(wd / "result.txt"), inst)
            require(ok, f"solve for seed {job['seed']} failed check_success")
            hits += ok
            for f in ("instance.txt", "result.txt"):
                hashes[f"{job['seed']}/{f}"] = sha256(wd / f)
        return {"recovery_rate": hits / len(jobs)}, hashes, {
            "attempted": len(jobs), "failed": 0}


WORKLOADS = {w.name: w for w in (PtDesk, StabilityPaper, CertifyOfdm, CliOfdm)}
