"""Tests of the benchmark itself: span arithmetic, wrapping, checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import END, NAME, START, Probe, layer_metrics, self_times  # noqa: E402
from workloads import CheckFailed  # noqa: E402


def span(name, start, end, parent=None, job=0, extra=None):
    return [name, start, end, parent, job, extra]


class TestSelfTimes:
    def test_nested_single_thread(self):
        root = span("bench.job", 0.0, 10.0)
        child = span("cli.main", 2.0, 5.0, root)
        grandchild = span("linop.apply", 3.0, 4.0, child)
        assert list(self_times([root, child, grandchild])) == pytest.approx([7.0, 2.0, 1.0])

    def test_child_outside_parent_is_clipped(self):
        root = span("bench.job", 0.0, 4.0)
        child = span("cli.main", 3.0, 6.0, root)
        assert list(self_times([root, child])) == pytest.approx([3.0, 3.0])

    def test_concurrent_children_share_wall_time(self):
        # two worker spans overlap on [3, 4]; a grandchild covers [2, 3]
        root = span("experiments.sweep", 0.0, 10.0)
        a = span("solvers.pdhg", 1.0, 4.0, root)
        b = span("solvers.pdhg", 3.0, 6.0, root)
        g = span("linop.apply", 2.0, 3.0, a)
        got = self_times([root, a, b, g])
        assert list(got) == pytest.approx([5.0, 1.5, 2.5, 1.0])
        assert got.sum() == pytest.approx(10.0)

    def test_empty(self):
        assert self_times([]).size == 0


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail([float(i) for i in range(1, 21)]) == (18.0, 90.0, 2)
    assert run.tail([float(i) for i in range(1, 111)]) == (99.0, 90.0, 11)
    # whole rounds repeated: the same input stays at p90
    once = [float(i) for i in range(1, 49)]
    assert run.tail(once)[0] == run.tail(once * 3)[0] == 44.0


def _traced(probe, fn):
    probe.install_spans()
    root = probe.begin_job(0)
    try:
        fn()
    finally:
        probe.end_job(root)
        probe.uninstall_spans()
    return root


def test_double_wrapping_is_refused():
    probe = Probe()
    probe.install_capture()
    try:
        with pytest.raises(RuntimeError, match="already wrapped"):
            Probe().install_capture()
    finally:
        probe.uninstall()
    from demixcs import experiments
    assert not hasattr(experiments.gen_instance, spans._MARK)



def test_capture_without_keep_holds_nothing(tmp_path):
    """Workloads whose check re-reads files keep no outcomes in memory."""
    bench = workloads.CliOfdm()
    assert not bench.captures
    probe = Probe()
    probe.install_capture(keep=bench.captures)
    try:
        assert bench.run_job(0, tmp_path)["codes"] == (0, 0)
        root = _traced(probe, lambda: bench.run_job(1, tmp_path))
    finally:
        probe.uninstall()
    assert probe.pdhg == [] and probe.instances == {}
    pdhg = [s for s in probe.spans if s[NAME] == "solvers.pdhg"]
    assert len(pdhg) == 1 and pdhg[0][spans.EXTRA][0].iterations > 0
    assert root[END] > root[START]

def test_span_counts_match_known_counts(tmp_path):
    """One rip.enum per certificate, one models.gen per trial, one PDHG per cell."""
    from demixcs import linop

    probe = Probe()
    probe.install_capture()
    try:
        def jobs():
            for seed in (1, 2):
                code, _ = workloads.run_cli(["rip", "--family", "cs-ofdm", "--n", 8,
                                             "--m", 8, "--s", 1, "--k", 1,
                                             "--seed", seed, "--out", tmp_path / "rip"])
                assert code == 0
            code, _ = workloads.run_cli(["pt", "--family", "mtx1", "--n", 16, "--m", 8,
                                         "--s", "1,2,3", "--k", "1", "--trials", 4,
                                         "--max-iter", 50, "--seed", 5, "--threads", 2,
                                         "--out", tmp_path / "pt"])
            assert code == 0

        root = _traced(probe, jobs)
    finally:
        probe.uninstall()
    plain = linop.LinearOperator.__dict__["apply"]
    assert not hasattr(plain, spans._MARK)

    counts = {}
    for s in probe.spans:
        counts[s[NAME]] = counts.get(s[NAME], 0) + 1
    assert counts["rip.enum"] == 2
    assert counts["cli.main"] == 3
    assert counts["experiments.sweep"] == 1
    assert counts["models.gen"] == 3 * 4
    assert counts["solvers.pdhg"] == 3
    assert counts["solvers.check_success"] == 3 * 4
    assert counts["models.build"] == 2 + 3

    metrics = layer_metrics(probe.spans, jobs=1)
    assert metrics["rip.pairs"] == 2 * 28 * 28
    assert metrics["experiments.cells"] == 3
    assert metrics["solvers.pdhg_col_iters"] == sum(
        r.iterations for _, results in probe.pdhg for r in results)
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert layers == pytest.approx(root[END] - root[START], rel=1e-9)


def _table(columns, rows):
    from demixcs.experiments import ResultTable
    return ResultTable(columns=columns, rows=rows, provenance={"seed": "0"})


def test_corrupted_pt_csv_fails(tmp_path):
    from demixcs.experiments import PT_COLUMNS, emit_csv, parse_csv

    rows = [("modulated-hadamard", 128, 64, s, k, "gaussian", 1.0, 50, frac)
            for k in (4, 8) for s, frac in ((1, 1.0), (5, 1.0), (100, 0.0))]
    job = {"workdir": str(tmp_path), "seed": 7, "code": 0}
    for name in ("phase_transition.svg", "run_manifest.txt"):
        (tmp_path / name).write_text("x\n")
    emit_csv(_table(PT_COLUMNS, rows), tmp_path / "phase_transition.csv")
    assert workloads.pt_checks(
        parse_csv(tmp_path / "phase_transition.csv"), 50) == (True, True, True)

    rows[0] = rows[0][:-1] + (0.5,)     # plateau cell s=1, k=4 drops
    emit_csv(_table(PT_COLUMNS, rows), tmp_path / "phase_transition.csv")
    with pytest.raises(CheckFailed, match="criterion 5d"):
        workloads.PtDesk().verify([job], Probe())


def test_corrupted_stability_csv_fails(tmp_path):
    from demixcs.experiments import STAB_COLUMNS, emit_csv, parse_csv

    def rows(irls_noisy):
        return [("modulated-hadamard", 512, 256, 10, 10, name, eps, eps * 16, 50, err, 0.0)
                for name, errs in (("penalized_l1", (1e-8, 1.5)),
                                   ("irls_lp", (5e-9, irls_noisy)))
                for eps, err in zip((0.0, 0.1), errs)]

    emit_csv(_table(STAB_COLUMNS, rows(2.2)), tmp_path / "stability.csv")
    workloads.stability_checks(parse_csv(tmp_path / "stability.csv"))
    emit_csv(_table(STAB_COLUMNS, rows(4.6)), tmp_path / "stability.csv")
    with pytest.raises(CheckFailed, match="> 3x penalized_l1"):
        workloads.stability_checks(parse_csv(tmp_path / "stability.csv"))


def test_noiseless_checks():
    errors = [1e-8] * 49 + [3e-4]       # one max_iter straggler still passes
    workloads.noiseless_checks("penalized_l1", errors, [True] * 50)
    with pytest.raises(CheckFailed, match="p90 error"):
        workloads.noiseless_checks("penalized_l1", [1e-8] * 40 + [2e-6] * 10, [True] * 50)
    with pytest.raises(CheckFailed, match="fail check_success"):
        workloads.noiseless_checks("irls_lp", errors, [True] * 49 + [False])


def test_corrupted_certificate_fails(tmp_path):
    bench = workloads.CertifyOfdm()
    ref = workloads.CERTIFY_DELTA_2S2K
    job = {"workdir": str(tmp_path), "seed": bench.round_seeds(0, 0)[0], "code": 0,
           "stdout": "delta_2s2k = 0.35\nsatisfied = true\n"}
    manifest = tmp_path / "run_manifest.txt"
    manifest.write_text(f"subcommand = rip\ndelta_2s2k = {ref!r}\nsatisfied = true\n")
    assert bench.verify([job], Probe())[0] == {"recovery_rate": 1.0}
    with pytest.raises(CheckFailed, match="rip exited 1"):
        bench.verify([job, dict(job, code=1)], Probe())
    manifest.write_text(f"subcommand = rip\ndelta_2s2k = {ref + 1e-6!r}\nsatisfied = true\n")
    with pytest.raises(CheckFailed, match="differs from"):
        bench.verify([job], Probe())


def test_certificate_matches_the_reference(tmp_path):
    bench = workloads.CertifyOfdm()
    seed = bench.round_seeds(3, 5)[0]
    job = dict(bench.run_job(seed, tmp_path), seed=seed, workdir=str(tmp_path))
    assert bench.verify([job], Probe())[0] == {"recovery_rate": 1.0}


def test_corrupted_cli_result_fails(tmp_path):
    bench = workloads.CliOfdm()
    job = dict(bench.run_job(0, tmp_path), seed=0, workdir=str(tmp_path))
    quality, hashes, counts = bench.verify([job], Probe())
    assert quality == {"recovery_rate": 1.0} and counts == {"attempted": 1, "failed": 0}
    assert set(hashes) == {"0/instance.txt", "0/result.txt"}

    path = tmp_path / "result.txt"
    lines = path.read_text().splitlines()
    first = lines.index("[x_hat]") + 1
    lines[first:first + 256] = ["0.0,0.0"] * 256
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed, match="check_success"):
        bench.verify([job], Probe())


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    run_level = {"trace.wall_s", "wall_s_tail", "trace.overhead_frac", "failed_frac",
                 "error_l1", "error_irls"}
    computed = set(layer_metrics([], jobs=1)) | run_level
    assert computed == set(run.metric_units()[1])
