import re
import threading
import xml.etree.ElementTree as ET
from dataclasses import fields, make_dataclass, replace

import numpy as np
import pytest

from demixcs import ArgumentError, derive_seed
from demixcs.seeding import rng
from demixcs.experiments import (
    PT_COLUMNS,
    STAB_COLUMNS,
    PhaseTransitionSpec,
    ResultTable,
    StabilitySpec,
    _spec_digest,
    emit_csv,
    emit_plot,
    parse_csv,
    run_phase_transition,
    run_stability,
)
from demixcs.solvers import IrlsConfig, PenalizedL1Config


FAST_CFG = PenalizedL1Config(lambda_reg=1.0, epsilon=0.0, max_iter=2000, tol=1e-9)


def tiny_pt_spec(**overrides):
    kw = dict(family="modulated-hadamard", n=32, m=16, s_values=(1, 2),
              k_values=(1,), trials=5, setting="gaussian",
              solver_cfg=FAST_CFG, master_seed=3)
    kw.update(overrides)
    return PhaseTransitionSpec(**kw)


class TestDeriveSeed:
    def test_same_inputs_same_output(self):
        assert derive_seed(42, (1, 2, 3)) == derive_seed(42, (1, 2, 3))

    def test_distinct_paths_for_many_masters(self):
        for master in range(10 ** 4):
            assert derive_seed(master, (0,)) != derive_seed(master, (1,))

    def test_path_order_matters(self):
        assert derive_seed(7, (1, 2)) != derive_seed(7, (2, 1))

    def test_no_collisions_over_a_million_draws(self):
        seen = set()
        for cell in range(100):
            for trial in range(10 ** 4):
                seen.add(derive_seed(12345, (cell, trial)))
        assert len(seen) == 10 ** 6

    @pytest.mark.parametrize("seed, path", [(-1, (0,)), (3, (0, -2)), (1.5, (0,)), (True, (0,)),
                                            (3, (1.5,)), (3, (True,))])
    def test_negative_seed_or_path_entry_rejected(self, seed, path):
        with pytest.raises(ArgumentError, match="nonnegative"):
            derive_seed(seed, path)
        with pytest.raises(ArgumentError, match="nonnegative"):
            rng(seed, *path)


class TestEmitCsv:
    def test_empty_grid_gives_header_only(self, tmp_path):
        table = ResultTable(columns=PT_COLUMNS, rows=[], provenance={"seed": "1"})
        path = tmp_path / "empty.csv"
        emit_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == ",".join(PT_COLUMNS)
        assert len(lines) == 2

    def test_round_trip(self, tmp_path):
        rows = [("modulated-hadamard", 32, 16, 1, 1, "gaussian", 1.0, 5, 0.8),
                ("modulated-hadamard", 32, 16, 2, 1, "gaussian", 1.0, 5, 1.0 / 3.0)]
        table = ResultTable(columns=PT_COLUMNS, rows=rows,
                            provenance={"seed": "3", "version": "x"})
        path = tmp_path / "t.csv"
        emit_csv(table, path)
        back = parse_csv(path)
        assert back.columns == PT_COLUMNS
        assert back.provenance == table.provenance
        for got, want in zip(back.rows, rows):
            assert got[:8] == want[:8]
            assert got[8] == want[8]  # 17 significant digits round-trip floats

    def test_text_with_comma_and_quote_round_trips(self, tmp_path):
        rows = [("a,b", 1.5), ('say "hi", twice', 2)]
        table = ResultTable(columns=("label", "value"), rows=rows, provenance={"seed": "3"})
        path = tmp_path / "t.csv"
        emit_csv(table, path)
        back = parse_csv(path)
        assert (back.columns, back.rows, back.provenance) == (table.columns, rows, table.provenance)

    def test_byte_identical_reruns(self, tmp_path):
        spec = tiny_pt_spec()
        t1 = run_phase_transition(spec)
        t2 = run_phase_transition(spec)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(t1, p1)
        emit_csv(t2, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestEmitPlot:
    def test_single_cell_is_valid_svg(self, tmp_path):
        table = ResultTable(columns=PT_COLUMNS,
                            rows=[("f", 8, 4, 1, 1, "gaussian", 1.0, 2, 1.0)],
                            provenance={})
        path = tmp_path / "one.svg"
        emit_plot(table, "success_vs_s", path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")

    def test_one_series_per_k(self, tmp_path):
        rows = [("f", 8, 4, s, k, "gaussian", 1.0, 2, 0.5)
                for k in (10, 20, 30) for s in (1, 2, 3)]
        table = ResultTable(columns=PT_COLUMNS, rows=rows, provenance={})
        path = tmp_path / "three.svg"
        emit_plot(table, "success_vs_s", path)
        text = path.read_text()
        assert text.count("<polyline") == 3
        for k in (10, 20, 30):
            assert f"k = {k}" in text

    def test_deterministic_bytes(self, tmp_path):
        rows = [("f", 8, 4, 1, 1, "gaussian", 1.0, 2, 0.25)]
        table = ResultTable(columns=PT_COLUMNS, rows=rows, provenance={})
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_plot(table, "success_vs_s", a)
        emit_plot(table, "success_vs_s", b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_columns_raise(self, tmp_path):
        table = ResultTable(columns=("x", "y"), rows=[], provenance={})
        with pytest.raises(ArgumentError):
            emit_plot(table, "success_vs_s", tmp_path / "bad.svg")
        with pytest.raises(ArgumentError):
            emit_plot(table, "nope", tmp_path / "bad2.svg")


class TestPhaseTransition:
    def test_zero_sparsity_cells_always_succeed(self):
        spec = tiny_pt_spec(s_values=(0,), k_values=(1, 2), trials=10)
        table = run_phase_transition(spec)
        for row in table.rows:
            assert row[PT_COLUMNS.index("success_fraction")] == 1.0

    def test_success_fractions_in_range_and_grid_complete(self):
        spec = tiny_pt_spec(s_values=(1, 2, 3), k_values=(1, 2), trials=5)
        table = run_phase_transition(spec)
        assert len(table.rows) == 6
        idx = PT_COLUMNS.index("success_fraction")
        for row in table.rows:
            assert 0.0 <= row[idx] <= 1.0

    def test_one_matrix_per_cell_fresh_instances_per_trial(self):
        # trial draws differ inside a cell but the cell matrix is shared:
        # rerun with trials=1 vs trials=2 and confirm the first trial of
        # each cell is unchanged (seeds derive from (cell, trial))
        base = tiny_pt_spec(s_values=(2,), k_values=(1,), trials=1)
        more = tiny_pt_spec(s_values=(2,), k_values=(1,), trials=2)
        r1 = run_phase_transition(base).rows[0]
        r2 = run_phase_transition(more).rows[0]
        assert r1[:4] == r2[:4]

    def test_zero_trials_rejected(self):
        with pytest.raises(ArgumentError, match="trials"):
            tiny_pt_spec(trials=0)

    @pytest.mark.parametrize("trials", [1.5, True, "2"])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(ArgumentError, match=f"positive integers, got {trials!r}"):
            tiny_pt_spec(trials=trials)

    @pytest.mark.parametrize("grid", [dict(s_values=(1, -1)), dict(k_values=(-1,))])
    def test_negative_sparsity_rejected(self, grid):
        with pytest.raises(ArgumentError, match="outside"):
            tiny_pt_spec(**grid)

    def test_unknown_setting_rejected(self):
        with pytest.raises(ArgumentError, match="weird"):
            tiny_pt_spec(setting="weird")

    def test_unbuildable_model_raises_before_any_cell(self, monkeypatch):
        from demixcs import experiments

        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_pt_cell", no_cell)
        with pytest.raises(ArgumentError):
            run_phase_transition(tiny_pt_spec(n=60))

    def test_desk_scale_ordering_properties(self):
        spec = PhaseTransitionSpec(
            family="modulated-hadamard", n=128, m=64, s_values=(1, 5, 20, 40),
            k_values=(4, 8), trials=20, setting="gaussian",
            solver_cfg=FAST_CFG, master_seed=7)
        table = run_phase_transition(spec)
        idx = PT_COLUMNS.index("success_fraction")
        by_k = {}
        for row in table.rows:
            by_k.setdefault(row[4], []).append(row[idx])
        margin = 3.0 / np.sqrt(20)
        # denser corruption cannot beat sparser corruption beyond noise
        for lo, hi in zip(by_k[8], by_k[4]):
            assert hi >= lo - margin
        # success degrades (noisily) as the signal gets denser
        for fracs in by_k.values():
            for earlier, later in zip(fracs, fracs[1:]):
                assert later <= earlier + margin


class TestStability:
    def test_columns_and_conversion(self):
        spec = StabilitySpec(
            family="modulated-hadamard", n=32, m=16, s=1, k=1,
            eps_values=(0.0, 0.1), trials=4,
            irls_cfg=IrlsConfig(outer_max=20, cg_max=300, cg_tol=1e-9),
            lambda_reg=1.0, solver_cfg=FAST_CFG, master_seed=11)
        table = run_stability(spec)
        assert table.columns == STAB_COLUMNS
        assert len(table.rows) == 4  # 2 eps x 2 solvers
        iball = STAB_COLUMNS.index("eps_ball")
        ieps = STAB_COLUMNS.index("eps_amp")
        for row in table.rows:
            assert row[iball] == pytest.approx(row[ieps] * np.sqrt(16))
        # the conversion rule rides along in every emitted header
        assert table.provenance["eps_ball_rule"] == "eps_amp*sqrt(m)"

    def test_noiseless_errors_are_tiny(self):
        spec = StabilitySpec(
            family="modulated-hadamard", n=32, m=16, s=1, k=1,
            eps_values=(0.0,), trials=4,
            irls_cfg=IrlsConfig(outer_max=30, cg_max=300, cg_tol=1e-9),
            lambda_reg=1.0, solver_cfg=FAST_CFG, master_seed=11)
        table = run_stability(spec)
        imean = STAB_COLUMNS.index("mean_error")
        for row in table.rows:
            assert row[imean] <= 1e-5

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_noiseless_irls_within_3x_of_l1_at_gate_6_configs(self, seed):
        # the zero-noise clause of criterion 6's irls_lp <= 3x penalized_l1,
        # on a desk model: both errors sit at solver precision there
        spec = StabilitySpec(
            family="mtx1", n=128, m=64, s=3, k=3, eps_values=(0.0,), trials=10,
            irls_cfg=IrlsConfig(p=0.5, nu=1.0, outer_max=30, cg_tol=1e-9, cg_max=500),
            lambda_reg=1.0,
            solver_cfg=PenalizedL1Config(lambda_reg=1.0, epsilon=0.0, max_iter=4000,
                                         tol=1e-9),
            master_seed=seed)
        table = run_stability(spec)
        errors = {row[STAB_COLUMNS.index("solver")]: row[STAB_COLUMNS.index("mean_error")]
                  for row in table.rows}
        assert 0.0 < errors["irls_lp"] <= 3.0 * errors["penalized_l1"]

    def test_zero_trials_rejected(self):
        with pytest.raises(ArgumentError, match="trials"):
            StabilitySpec(family="modulated-hadamard", n=32, m=16, s=1, k=1,
                          eps_values=(0.0,), trials=0, master_seed=0)

    @pytest.mark.parametrize("trials", [2.5, True])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(ArgumentError, match=f"at least 2, .* got {trials!r}"):
            StabilitySpec(family="modulated-hadamard", n=32, m=16, s=1, k=1,
                          eps_values=(0.0,), trials=trials)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ArgumentError, match="unknown solver 'lasso'"):
            StabilitySpec(family="modulated-hadamard", n=32, m=16, s=1, k=1,
                          eps_values=(0.0,), trials=2, solvers=("lasso",))

    @pytest.mark.parametrize("eps", [(0.0, float("nan")), (0.0, float("inf")), (-0.1, 0.0)])
    def test_eps_values_must_be_finite_and_nonnegative(self, eps):
        with pytest.raises(ArgumentError, match="noise_amp"):
            StabilitySpec(family="modulated-hadamard", n=32, m=16, s=1, k=1,
                          eps_values=eps, trials=2, master_seed=0)

    def test_solver_named_twice_rejected(self):
        with pytest.raises(ArgumentError, match="twice"):
            StabilitySpec(family="modulated-hadamard", n=32, m=16, s=1, k=1,
                          eps_values=(0.0,), trials=2,
                          solvers=("penalized_l1", "irls_lp", "penalized_l1"))

    def test_eps_values_must_be_sorted(self):
        with pytest.raises(Exception):
            StabilitySpec(family="modulated-hadamard", n=32, m=16, s=1, k=1,
                          eps_values=(0.1, 0.0), trials=2, master_seed=0)


def _grown(value, extra):
    """`value` as an instance of a subclass that adds the field `extra`, default 0."""
    cls = make_dataclass(type(value).__name__, [("extra", int, 0)], bases=(type(value),),
                         frozen=True)
    return cls(**{f.name: getattr(value, f.name) for f in fields(value)}, extra=extra)


def test_spec_digest_ignores_fields_at_their_defaults():
    stab = StabilitySpec(family="mtx1", n=32, m=16, s=1, k=1, eps_values=(0.0,), trials=2,
                         irls_cfg=IrlsConfig(outer_max=20), solver_cfg=FAST_CFG)
    for spec in (tiny_pt_spec(), stab):
        digest = _spec_digest(spec)
        for extra, kept in ((0, True), (1, False)):
            assert (_spec_digest(_grown(spec, extra)) == digest) is kept
            nested = replace(spec, solver_cfg=_grown(spec.solver_cfg, extra))
            assert (_spec_digest(nested) == digest) is kept
    assert _spec_digest(replace(stab, irls_cfg=_grown(stab.irls_cfg, 0))) == _spec_digest(stab)
    for changed in (replace(stab, master_seed=1), replace(stab, irls_cfg=IrlsConfig())):
        assert _spec_digest(changed) != _spec_digest(stab)


@pytest.mark.parametrize("name", ["s_values", "k_values", "eps_values", "solvers"])
def test_empty_sweep_rejected(name):
    stab = StabilitySpec(family="modulated-hadamard", n=32, m=16, s=1, k=1,
                         eps_values=(0.0,), trials=2)
    spec = stab if hasattr(stab, name) else tiny_pt_spec()
    with pytest.raises(ArgumentError, match=f"{name} is empty"):
        replace(spec, **{name: ()})


@pytest.mark.parametrize("name, values", [("s_values", (2, 1, 2)), ("k_values", (1, 1)),
                                          ("eps_values", (0.0, 0.0)), ("eps_values", (-0.0, 0.0))])
def test_repeated_sweep_value_rejected(name, values):
    # a repeated value would run its cell twice, on other draws, and write
    # two rows under one key; a repeated solver is test_solver_named_twice_rejected
    stab = StabilitySpec(family="modulated-hadamard", n=32, m=16, s=1, k=1,
                         eps_values=(0.0,), trials=2)
    spec = stab if hasattr(stab, name) else tiny_pt_spec()
    with pytest.raises(ArgumentError, match=f"{name} names a value twice"):
        replace(spec, **{name: values})


@pytest.mark.parametrize("seed", [1.5, True, -1])
def test_master_seed_must_be_a_nonnegative_integer(seed):
    stab = StabilitySpec(family="modulated-hadamard", n=32, m=16, s=1, k=1,
                         eps_values=(0.0,), trials=2)
    for spec in (stab, tiny_pt_spec()):
        with pytest.raises(ArgumentError, match=f"seed {seed!r} and path"):
            replace(spec, master_seed=seed)


@pytest.mark.parametrize("lam", [-1.0, 0, "1", True, float("nan")])
def test_stability_spec_checks_its_lambda_when_built(lam):
    message = f"lambda_reg must be a finite number in (0, inf), got {lam!r}"
    with pytest.raises(ArgumentError, match=re.escape(message)):
        StabilitySpec(family="modulated-hadamard", n=32, m=16, s=1, k=1,
                      eps_values=(0.0,), trials=2, lambda_reg=lam, master_seed=0)


def test_stability_spec_refuses_a_solver_cfg_epsilon_it_would_replace():
    # each cell solves with epsilon = its eps_ball, so another epsilon would
    # change the spec's digest and nothing else
    cfg = replace(FAST_CFG, epsilon=0.5)
    with pytest.raises(ArgumentError, match="solver_cfg.epsilon must be 0, .* got 0.5"):
        StabilitySpec(family="modulated-hadamard", n=32, m=16, s=1, k=1,
                      eps_values=(0.0,), trials=2, solver_cfg=cfg, master_seed=0)


def test_specs_reject_a_solver_cfg_with_another_lambda():
    with pytest.raises(ArgumentError, match="lambda_reg"):
        StabilitySpec(family="modulated-hadamard", n=32, m=16, s=1, k=1,
                      eps_values=(0.0,), trials=2, lambda_reg=2.0,
                      solver_cfg=FAST_CFG, master_seed=0)


def test_sweep_cells_run_on_the_calling_thread(tmp_path, monkeypatch):
    from demixcs import experiments
    from demixcs.cli import main

    seen = []

    def recording(cell):
        def wrapper(*args):
            seen.append((cell.__name__, threading.get_ident()))
            return cell(*args)
        return wrapper

    for name in ("_pt_cell", "_stability_cell"):
        monkeypatch.setattr(experiments, name, recording(getattr(experiments, name)))
    common = ["--family", "mtx1", "--n", "32", "--m", "16", "--k", "1", "--trials", "2",
              "--max-iter", "200", "--threads", "4"]
    assert main(["pt", "--s", "1,2"] + common + ["--out", str(tmp_path / "pt")]) == 0
    assert main(["stability", "--s", "1", "--eps", "0,0.1"] + common
                + ["--out", str(tmp_path / "stab")]) == 0
    assert sorted(name for name, _ in seen) == ["_pt_cell"] * 2 + ["_stability_cell"] * 2
    assert {ident for _, ident in seen} == {threading.get_ident()}
