import math
from pathlib import Path

import numpy as np
import pytest

from demixcs import FormatError, NumericalError, UsageError, gen_instance
from demixcs import cli
from demixcs.cli import main, parse_args, parse_float_list, parse_int_list
from demixcs.experiments import parse_csv
from demixcs.io import load_instance, save_instance, save_result
from demixcs.linop import materialize
from demixcs.models import FAMILIES, build_cs_ofdm, build_family
from demixcs.rip import skrip_support_extremes
from demixcs.solvers import (
    IrlsConfig,
    PenalizedL1Config,
    solve_irls_lp_batch,
    solve_penalized_l1_batch,
)


class TestParseArgs:
    def test_phase_transition_invocation(self):
        cfg = parse_args(["pt", "--family", "mtx1", "--n", "512", "--m", "256",
                          "--k", "10,20,30", "--s", "1:100", "--trials", "100",
                          "--lambda", "1", "--seed", "7"])
        assert cfg.subcommand == "pt"
        assert cfg.params["family"] == "mtx1"
        assert cfg.params["n"] == 512
        assert parse_int_list(cfg.params["s"], "--s") == tuple(range(1, 101))
        assert parse_int_list(cfg.params["k"], "--k") == (10, 20, 30)
        assert cfg.seed == 7

    def test_missing_required_flag_names_it(self):
        with pytest.raises(UsageError, match="--n"):
            parse_args(["pt", "--family", "mtx1", "--m", "256", "--s", "1",
                        "--k", "1", "--trials", "2"])

    def test_range_syntax_inclusive(self):
        assert parse_int_list("3:6", "--s") == (3, 4, 5, 6)

    def test_float_sweep_syntax(self):
        got = parse_float_list("0:0.1:0.05", "--eps")
        assert got == (0.0, 0.05, 0.1)
        assert parse_float_list("0,0.25", "--eps") == (0.0, 0.25)

    @pytest.mark.parametrize("text", ["0:0.1:0", "0:0.1:-0.05", "0:0.1:nan"])
    def test_float_sweep_without_values_rejected(self, text):
        with pytest.raises(UsageError, match="--eps"):
            parse_float_list(text, "--eps")

    def test_unknown_flag_rejected(self):
        with pytest.raises(UsageError, match="--bogus"):
            parse_args(["pt", "--bogus", "1"])

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("family = mtx1\nn = 64\nm = 32\ns = 1\nk = 1\ntrials = 2\n")
        cfg = parse_args(["pt", "--config", str(cfg_file), "--n", "128"])
        assert cfg.params["n"] == 128   # explicit flag wins
        assert cfg.params["m"] == 32    # file value survives

    def test_usage_error_exit_code(self, capsys):
        code = main(["pt", "--family", "mtx1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--n" in err


class TestFlagTable:
    """Each subcommand takes only the flags it reads."""

    @pytest.mark.parametrize("args, flag", [
        (["pt", "--family", "mtx1", "--n", "32", "--m", "16", "--s", "1", "--k", "1",
          "--trials", "2", "--solver", "irls_lp"], "--solver"),
        (["pt", "--family", "mtx1", "--n", "32", "--m", "16", "--s", "1", "--k", "1",
          "--trials", "2", "--eps", "0.1"], "--eps"),
        (["model", "--family", "mtx1", "--n", "32", "--m", "16", "--trials", "3"],
         "--trials"),
        (["solve", "--instance", "absent.txt", "--lambda", "1", "--seed", "1"], "--seed"),
        (["gen", "--family", "mtx1", "--n", "32", "--m", "16", "--s", "1", "--k", "1",
          "--lambda", "2"], "--lambda"),
    ])
    def test_flag_the_subcommand_does_not_read(self, tmp_path, capsys, args, flag):
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == 2
        one_line_error(capsys, flag)
        assert not out.exists()

    @pytest.mark.parametrize("key", ["eps", "config"])
    def test_config_key_the_subcommand_does_not_read(self, tmp_path, capsys, key):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("family = mtx1\nn = 32\nm = 16\ns = 1\nk = 1\ntrials = 2\n"
                            f"{key} = 0.1\n")
        out = tmp_path / "out"
        assert main(["pt", "--config", str(cfg_file), "--out", str(out)]) == 2
        one_line_error(capsys, f"'{key}'")
        assert not out.exists()

    SOLVE = ["solve", "--instance", "absent.txt"]
    STAB = ["stability", "--family", "mtx1", "--n", "32", "--m", "16", "--s", "1",
            "--k", "1", "--eps", "0,0.1", "--trials", "2"]
    BOUNDS = ["bounds", "--s", "1", "--k", "1", "--delta", "0.5"]

    @pytest.mark.parametrize("args, flag", [
        (SOLVE + ["--solver", "irls_lp", "--eps", "0.3"], "--eps"),
        (SOLVE + ["--solver", "irls_lp", "--max-iter", "5"], "--max-iter"),
        (SOLVE + ["--solver", "irls_lp", "--lambda", "1"], "--lambda"),
        (SOLVE + ["--solver", "irls_lp", "--tol", "1e-3"], "--tol"),
        (SOLVE + ["--p", "0.7"], "--p"),
        (SOLVE + ["--solver", "penalized_l1", "--nu", "2"], "--nu"),
        (STAB + ["--solver", "irls_lp", "--tol", "1e-3"], "--tol"),
        (STAB + ["--solver", "irls_lp", "--lambda", "2"], "--lambda"),
        (STAB + ["--solver", "penalized_l1", "--p", "0.7"], "--p"),
        (BOUNDS + ["--theorem", "2", "--ntilde", "8", "--mu-b", "0.5", "--n", "8"], "--n"),
        (BOUNDS + ["--theorem", "2", "--ntilde", "8", "--mu-b", "0.5", "--mu-g", "0.3"],
         "--mu-g"),
        (BOUNDS + ["--theorem", "3", "--n", "8", "--mu-g", "0.5", "--ntilde", "8"],
         "--ntilde"),
        (BOUNDS + ["--theorem", "3", "--n", "8", "--mu-g", "0.5", "--mu-b", "0.5"], "--mu-b"),
        (BOUNDS + ["--theorem", "2", "--ntilde", "8"], "--mu-b"),
        (BOUNDS + ["--theorem", "3", "--mu-g", "0.5"], "--n"),
        (BOUNDS + ["--theorem", "4"], "--theorem"),
        (SOLVE + ["--solver", "newton"], "--solver"),
        (STAB + ["--solver", "penalized_l1,newton"], "--solver"),
    ])
    def test_flag_the_chosen_value_does_not_read(self, tmp_path, capsys, args, flag):
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == 2
        one_line_error(capsys, flag)
        assert not out.exists()

    def test_chosen_value_refuses_a_config_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("solver = irls_lp\neps = 0.3\n")
        out = tmp_path / "out"
        assert main(self.SOLVE + ["--config", str(cfg_file), "--out", str(out)]) == 2
        one_line_error(capsys, "--eps")
        assert not out.exists()

    def test_flag_given_twice(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["model", "--family", "mtx1", "--n", "32", "--m", "16", "--seed", "1",
                     "--seed", "2", "--out", str(out)]) == 2
        one_line_error(capsys, "'--seed' given twice")
        assert not out.exists()

    def test_readme_tables_match_usage(self):
        """README's flag tables hold, row by row, the flags `--help` prints."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        lines = []
        for block in readme.split("```")[1::2]:
            for raw in block.splitlines():
                if raw[:1].isspace() and lines:
                    lines[-1] += raw  # a wrapped row
                else:
                    lines.append(raw)
        rows = [" ".join(line.split()) for line in lines]
        usage = [" ".join(line.split()) for line in cli._usage().splitlines()]
        for sub, flags in cli._FLAGS.items():
            row = f"{sub} {cli._flag_list(*flags)}"
            assert row in usage
            assert row in rows, f"README lacks the row '{row}'"
        for sub, (choice, table) in cli._CHOICES.items():
            for value in table:
                head = f"{sub} --{choice} {value} "
                want = [r[len(head + "also reads "):] for r in usage if r.startswith(head)]
                got = [r[len(head):].removeprefix("(default) ") for r in rows
                       if r.startswith(head)]
                assert len(want) == 1
                assert got == want, f"README's '{head}' row lists {got}, not {want}"

    def test_table_usage_and_parsers_agree(self):
        accepted = {name for required, optional in cli._FLAGS.values()
                    for name in required + optional}
        accepted |= {name for _, rows in cli._CHOICES.values()
                     for required, optional in rows.values() for name in required + optional}
        assert set(cli._PARSERS) <= accepted
        assert cli.SUBCOMMANDS == tuple(cli._FLAGS)
        usage = cli._usage()
        for sub, (required, optional) in cli._FLAGS.items():
            line = next(ln for ln in usage.splitlines() if ln.split()[:1] == [sub])
            assert set(line.replace("[", " ").replace("]", " ").split()[1:]) == {
                f"--{name}" for name in required + optional}
            flags = required + optional
            assert len(set(flags)) == len(flags) and not set(flags) & set(cli._COMMON)
        assert all(f"--{name}" in usage for name in cli._COMMON)
        for sub, (choice, rows) in cli._CHOICES.items():
            assert choice in sum(cli._FLAGS[sub], ())
            for value, (required, optional) in rows.items():
                head = f"  {sub} --{choice} {value} also reads "
                line = next(ln for ln in usage.splitlines() if ln.startswith(head))
                assert set(line[len(head):].replace("[", " ").replace("]", " ").split()) == {
                    f"--{name}" for name in required + optional}
                flags = required + optional
                assert len(set(flags)) == len(flags)
                assert not set(flags) & set(sum(cli._FLAGS[sub], ()) + cli._COMMON)


class TestConfigFile:
    """A config file the record reader refuses is a usage error."""

    PT = ["pt", "--family", "mtx1", "--n", "32", "--m", "16", "--s", "1", "--k", "1",
          "--trials", "2"]

    @pytest.mark.parametrize("text, name", [
        (None, "cannot read"),
        ("n = 32\nm 16\n", "line 2"),
        ("n = 32\n[extra]\nm = 16\n", "[extra]"),
        ("seed = 1\nseed = 2\n", "'seed' given twice"),
    ])
    def test_refused_config_file(self, tmp_path, capsys, text, name):
        cfg_file = tmp_path / "run.cfg"
        if text is not None:
            cfg_file.write_text(text)
        out = tmp_path / "out"
        assert main(self.PT + ["--config", str(cfg_file), "--out", str(out)]) == 2
        one_line_error(capsys, name)
        assert not out.exists()

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# desk run\n\nn = 32\n  m = 16  \n")
        cfg = parse_args(["pt", "--family", "mtx1", "--s", "1", "--k", "1", "--trials", "2",
                          "--config", str(cfg_file)])
        assert (cfg.params["n"], cfg.params["m"]) == (32, 16)


class TestVectorAndInstanceFiles:
    def test_instance_round_trip_bitwise(self, tmp_path):
        model = build_cs_ofdm(32, 16, seed=5)
        inst = gen_instance(model, 2, 1, "gaussian", 0.05, seed=9)
        path = tmp_path / "inst.txt"
        save_instance(path, inst)
        back = load_instance(path)
        assert np.array_equal(back.y, inst.y)
        assert np.array_equal(back.x_true, inst.x_true)
        assert np.array_equal(back.z_true, inst.z_true)
        assert np.array_equal(back.w, inst.w)
        assert back.s == inst.s and back.k == inst.k
        assert back.sub_seeds == inst.sub_seeds

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_round_trip_bitwise(self, tmp_path, family):
        inst = gen_instance(build_family(family, 64, 32, seed=2), 3, 2, "gaussian", 0.05,
                            seed=3)
        path = tmp_path / "inst.txt"
        save_instance(path, inst)
        back = load_instance(path)
        assert back.model.describe() == inst.model.describe()
        for name in ("x_true", "z_true", "w", "y"):
            assert np.array_equal(getattr(back, name), getattr(inst, name))


class TestDispatch:
    def test_rip_reports_threshold(self, tmp_path, capsys):
        code = main(["rip", "--family", "cs-ofdm", "--n", "32", "--m", "32",
                     "--s", "1", "--k", "1", "--lambda", "1", "--seed", "11",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "threshold = 0.492366" in out
        assert "satisfied = true" in out
        assert (tmp_path / "run_manifest.txt").exists()

    def test_rip_support_csv_lists_every_support_pair(self, tmp_path, capsys):
        path = tmp_path / "supports.csv"
        assert main(["rip", "--family", "mtx1", "--n", "16", "--m", "8", "--s", "1",
                     "--k", "1", "--seed", "3", "--support-csv", str(path),
                     "--out", str(tmp_path / "out")]) == 0
        model = build_family("mtx1", 16, 8, 3)
        want = [(" ".join(map(str, sig)), " ".join(map(str, cor)), lo, hi)
                for sig, cor, lo, hi in skrip_support_extremes(
                    materialize(model.A), materialize(model.H), 2, 2)]
        assert len(want) == math.comb(16, 2) * math.comb(8, 2)
        table = parse_csv(path)
        assert table.columns == ("signal_support", "corruption_support", "eig_min", "eig_max")
        assert table.rows == want

    def test_bounds_passthrough(self, tmp_path, capsys):
        code = main(["bounds", "--theorem", "2", "--s", "10", "--k", "10",
                     "--ntilde", "512", "--mu-b", "0.0442", "--delta", "0.5",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "m_signal" in out and "m_corruption" in out

    def test_gen_then_solve_pipeline(self, tmp_path, capsys):
        out_a = tmp_path / "gen"
        out_b = tmp_path / "solve"
        assert main(["gen", "--family", "cs-ofdm", "--n", "32", "--m", "32",
                     "--s", "1", "--k", "1", "--seed", "4",
                     "--out", str(out_a)]) == 0
        assert main(["solve", "--instance", str(out_a / "instance.txt"),
                     "--lambda", "1", "--eps", "0",
                     "--out", str(out_b)]) == 0
        text = (out_b / "result.txt").read_text()
        assert "status = converged" in text
        assert "[x_hat]" in text and "[z_hat]" in text

    @pytest.mark.parametrize("flags, solve, cfg", [
        (["--lambda", "1", "--eps", "0.1"], solve_penalized_l1_batch,
         PenalizedL1Config(lambda_reg=1.0, epsilon=0.1)),
        (["--solver", "irls_lp"], solve_irls_lp_batch, IrlsConfig()),
    ], ids=["pdhg_eps", "irls"])
    def test_solve_writes_what_a_wider_batch_computes(self, tmp_path, capsys, flags, solve,
                                                      cfg):
        gen, out = tmp_path / "gen", tmp_path / "solve"
        assert main(["gen", "--family", "mtx1", "--n", "32", "--m", "16", "--s", "2",
                     "--k", "1", "--eps", "0.01", "--seed", "4", "--out", str(gen)]) == 0
        assert main(["solve", "--instance", str(gen / "instance.txt"), *flags,
                     "--out", str(out)]) == 0
        inst = load_instance(gen / "instance.txt")
        y = np.stack([gen_instance(inst.model, 3, 2, "gaussian", 0.01, 5).y, inst.y,
                      gen_instance(inst.model, 1, 0, "gaussian", 0.0, 6).y], axis=1)
        save_result(tmp_path / "batch.txt", solve(inst.model, y, cfg)[1])
        assert (out / "result.txt").read_bytes() == (tmp_path / "batch.txt").read_bytes()

    @pytest.mark.parametrize("flags", [[], ["--solver", "irls_lp", "--p", "0.7", "--nu", "2"]])
    def test_solve_without_lambda(self, tmp_path, capsys, flags):
        gen, out = tmp_path / "gen", tmp_path / "solve"
        assert main(["gen", "--family", "cs-ofdm", "--n", "32", "--m", "32", "--s", "1",
                     "--k", "1", "--seed", "4", "--out", str(gen)]) == 0
        assert main(["solve", "--instance", str(gen / "instance.txt"), *flags,
                     "--out", str(out)]) == 0
        assert "status = " in (out / "result.txt").read_text()

    def test_computational_error_exit_code(self, tmp_path, capsys):
        # enumeration budget exceeded maps to a one-line error and exit 1
        code = main(["rip", "--family", "mtx1", "--n", "512", "--m", "256",
                     "--s", "4", "--k", "4", "--lambda", "1",
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "BudgetError" in err


def one_line_error(capsys, *names):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert all(name in err for name in names)


class TestInputFailures:
    """Bad inputs exit with a documented code, one stderr line and no outputs."""

    SOLVE = ["solve", "--lambda", "1", "--eps", "0"]

    def test_missing_instance_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.txt"
        with pytest.raises(FormatError):
            load_instance(missing)
        out = tmp_path / "out"
        assert main(self.SOLVE + ["--instance", str(missing), "--out", str(out)]) == 1
        one_line_error(capsys, "FormatError")
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "family = mtx1\nm = 4\n",                       # no n
        "family = mtx1\nn = eight\nm = 4\n",           # n does not parse
    ])
    def test_malformed_instance_file(self, tmp_path, capsys, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(FormatError):
            load_instance(path)
        out = tmp_path / "out"
        assert main(self.SOLVE + ["--instance", str(path), "--out", str(out)]) == 1
        one_line_error(capsys, "FormatError")
        assert not out.exists()

    @pytest.mark.parametrize("old, new, name", [
        ("s = 1\n", "s 1\n", "expected 'key = value'"),
        ("k = 1\n", "k = 1\nk = 2\n", "'k' given twice"),
        ("[w]\n", "[x_true]\n", "'x_true' given twice"),
        ("[w]\n", "[notes]\nhello\n[w]\n", r"unknown block '\[notes\]'"),
        # headers that gen would refuse
        ("s = 1\n", "s = 99\n", r"signal sparsity 99 outside \[0, 32\]"),
        ("noise_amp = 0.0\n", "noise_amp = -1.0\n", "noise_amp must be finite"),
        ("setting = gaussian\n", "setting = bogus\n", "unknown setting 'bogus'"),
        # headers naming a model that cannot be built
        ("family = modulated-hadamard\n", "family = subsampled-hadamard\n",
         "m must be a power of two, got 12"),
        ("family = modulated-hadamard\n", "family = nope\n", "unknown model family 'nope'"),
    ])
    def test_header_line_the_reader_refuses(self, tmp_path, capsys, old, new, name):
        model = build_family("mtx1", 32, 12, seed=5)
        path = tmp_path / "inst.txt"
        save_instance(path, gen_instance(model, 1, 1, "gaussian", 0.0, seed=9))
        path.write_text(path.read_text().replace(old, new, 1))
        with pytest.raises(FormatError, match=name):
            load_instance(path)
        out = tmp_path / "out"
        assert main(self.SOLVE + ["--instance", str(path), "--out", str(out)]) == 1
        one_line_error(capsys, "FormatError", f"'{path}'")
        assert not out.exists()

    def test_truncated_vector_block(self, tmp_path):
        model = build_cs_ofdm(32, 16, seed=5)
        path = tmp_path / "inst.txt"
        save_instance(path, gen_instance(model, 2, 1, "gaussian", 0.0, seed=9))
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].split(",")[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            load_instance(path)

    def test_foreign_model_parameter(self, tmp_path, capsys):
        inst_dir = tmp_path / "gen"
        assert main(["gen", "--family", "mtx1", "--n", "32", "--m", "16",
                     "--s", "1", "--k", "1", "--seed", "4", "--out", str(inst_dir)]) == 0
        path = inst_dir / "instance.txt"
        path.write_text(path.read_text().replace("s = 1\n", "param_colour = red\ns = 1\n", 1))
        capsys.readouterr()
        with pytest.raises(FormatError, match="colour"):
            load_instance(path)
        out = tmp_path / "out"
        assert main(self.SOLVE + ["--instance", str(path), "--out", str(out)]) == 1
        one_line_error(capsys, "FormatError")
        assert not out.exists()

    @pytest.mark.parametrize("block, rows, name", [
        ("y", [], r"'\[y\]' holds 15 rows, expected 16"),
        ("w", [], r"'\[w\]' holds 15 rows, expected 16"),
        ("x_true", ["nan,0.0"], r"'\[x_true\]' holds a non-finite entry"),
    ], ids=["y-row-short", "w-row-short", "x_true-nan-row"])
    def test_vector_block_the_reader_refuses(self, tmp_path, capsys, block, rows, name):
        model = build_cs_ofdm(32, 16, seed=5)
        path = tmp_path / "inst.txt"
        save_instance(path, gen_instance(model, 1, 1, "gaussian", 0.0, seed=9))
        lines = path.read_text().splitlines()
        at = lines.index(f"[{block}]") + 1
        lines[at:at + 1] = rows
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=name):
            load_instance(path)
        out = tmp_path / "out"
        assert main(self.SOLVE + ["--instance", str(path), "--out", str(out)]) == 1
        one_line_error(capsys, "FormatError")
        assert not out.exists()

    @pytest.mark.parametrize("out, support_csv", [
        ("file", None), ("file/sub", None), ("out", "file/sup.csv"),
        ("file", "sup.csv"), ("out", "dir"),
    ], ids=["out-is-a-file", "out-below-a-file", "support-csv-below-a-file",
            "out-is-a-file-after-support-csv", "support-csv-is-a-directory"])
    def test_unwritable_output_path(self, tmp_path, capsys, out, support_csv):
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        (tmp_path / "dir").mkdir()
        args = self.RIP + ["--s", "1", "--k", "1", "--out", str(tmp_path / out)]
        if support_csv:
            args += ["--support-csv", str(tmp_path / support_csv)]
        assert main(args) == 1
        one_line_error(capsys, "FormatError")
        assert blocker.read_text() == "kept\n"
        # neither the support CSV nor the manifest is left behind
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "file"]

    def test_single_trial_stability(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["stability", "--family", "mtx1", "--n", "32", "--m", "16",
                     "--s", "1", "--k", "1", "--eps", "0,0.1", "--trials", "1",
                     "--out", str(out)])
        assert code == 1
        one_line_error(capsys, "two samples")
        assert not out.exists()

    def test_eps_sweep_with_zero_step(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["stability", "--family", "mtx1", "--n", "32", "--m", "16",
                     "--s", "1", "--k", "1", "--eps", "0:0.1:0", "--trials", "2",
                     "--out", str(out)])
        assert code == 2
        one_line_error(capsys, "--eps")
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["pt", "stability"])
    def test_zero_trials(self, tmp_path, capsys, sub):
        out = tmp_path / "out"
        args = [sub, "--family", "mtx1", "--n", "32", "--m", "16", "--s", "1",
                "--k", "1", "--trials", "0", "--out", str(out)]
        if sub == "stability":
            args += ["--eps", "0,0.1"]
        assert main(args) == 1
        one_line_error(capsys, "trials")
        assert not out.exists()

    RIP = ["rip", "--family", "cs-ofdm", "--n", "8", "--m", "8"]

    @pytest.mark.parametrize("flags, code, name", [
        (["--s", "1", "--k", "1", "--lambda", "nan"], 1, "ArgumentError"),
        (["--s", "1", "--k", "1", "--lambda", "inf"], 1, "ArgumentError"),
        (["--s", "1", "--k", "1", "--lambda", "0"], 1, "ArgumentError"),
        (["--s", "1,2", "--k", "1"], 2, "--s"),
        (["--s", "1", "--k", "1:2"], 2, "--k"),
    ])
    def test_bad_certificate_arguments(self, tmp_path, capsys, flags, code, name):
        out = tmp_path / "out"
        assert main(self.RIP + flags + ["--out", str(out)]) == code
        one_line_error(capsys, name)
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--theorem", "2", "--delta", "0", "--ntilde", "8", "--mu-b", "0.5"],
        ["--theorem", "2", "--delta", "nan", "--ntilde", "8", "--mu-b", "0.5"],
        ["--theorem", "3", "--delta", "0.5", "--n", "0", "--mu-g", "0.5"],
        ["--theorem", "2", "--delta", "0.5", "--ntilde", "8", "--mu-b", "nan"],
        ["--theorem", "2", "--delta", "0.5", "--ntilde", "8", "--mu-b", "1.5"],
        ["--theorem", "3", "--delta", "0.5", "--n", "8", "--mu-g", "-3"],
        ["--theorem", "3", "--delta", "0.5", "--n", "8", "--mu-g", "0"],
        ["--theorem", "3", "--delta", "1", "--n", "8", "--mu-g", "1"],
        ["--theorem", "3", "--delta", "1e308", "--n", "8", "--mu-g", "1"],
        ["--theorem", "3", "--delta", "0.5", "--n", "1" + "0" * 400, "--mu-g", "1"],
    ])
    def test_bad_bound_arguments(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        assert main(["bounds", "--s", "1", "--k", "1", *flags, "--out", str(out)]) == 1
        one_line_error(capsys, "ArgumentError")
        assert not out.exists()

    @pytest.mark.parametrize("theorem", [["--theorem", "2", "--ntilde", "8", "--mu-b", "1"],
                                         ["--theorem", "3", "--n", "8", "--mu-g", "1"]])
    def test_tiny_delta_bound_is_infinite(self, tmp_path, capsys, theorem):
        out = tmp_path / "out"
        assert main(["bounds", "--s", "1", "--k", "1", "--delta", "1e-200", *theorem,
                     "--out", str(out)]) == 0
        assert "m_signal >= inf" in capsys.readouterr().out

    def test_materialize_counts_the_identity_it_applies(self, tmp_path, capsys, monkeypatch):
        from demixcs import linop

        # A is 2 x 64: 128 entries fit the budget, the 64 x 64 identity does not
        monkeypatch.setattr(linop, "MATERIALIZE_BUDGET", 1024)
        out = tmp_path / "out"
        assert main(["model", "--family", "mtx1", "--n", "64", "--m", "2",
                     "--out", str(out)]) == 1
        one_line_error(capsys, "BudgetError")
        assert not out.exists()

    GEN = ["gen", "--family", "mtx1", "--n", "32", "--m", "16"]
    STAB = ["stability", "--family", "mtx1", "--n", "32", "--m", "16",
            "--eps", "0,0.1", "--trials", "2"]

    @pytest.mark.parametrize("args, flag", [
        (GEN + ["--s", "1,2", "--k", "1"], "--s"),
        (GEN + ["--s", "1", "--k", "1:2"], "--k"),
        (GEN + ["--s", "1", "--k", "1", "--eps", "0,1"], "--eps"),
        (STAB + ["--s", "1:2", "--k", "1"], "--s"),
        (STAB + ["--s", "1", "--k", "1,2"], "--k"),
        (SOLVE[:3] + ["--eps", "abc", "--instance", "absent.txt"], "--eps"),
        (GEN + ["--s", "1", "--k", "1", "--eps", ""], "--eps"),
    ])
    def test_list_where_one_value_is_taken(self, tmp_path, capsys, args, flag):
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == 2
        one_line_error(capsys, flag)
        assert not out.exists()

    PT = ["pt", "--family", "mtx1", "--n", "32", "--m", "16", "--trials", "2"]
    N60 = ["--family", "mtx1", "--n", "60", "--m", "16"]

    # every refused value names ArgumentError, whichever subcommand got it
    @pytest.mark.parametrize("args, name", [
        (GEN + ["--s", "-1", "--k", "1"], "ArgumentError"),
        (GEN + ["--s", "1", "--k", "-1"], "ArgumentError"),
        (PT + ["--s", "-1", "--k", "1"], "ArgumentError"),
        (PT + ["--s", "1", "--k", "0,-1"], "ArgumentError"),
        (["model", "--family", "mtx1", "--n", "32", "--m", "16", "--seed", "-1"],
         "ArgumentError"),
        (PT + ["--s", "1", "--k", "1", "--setting", "weird"], "weird"),
        (GEN + ["--s", "1", "--k", "1", "--eps", "nan"], "noise_amp"),
        (GEN + ["--s", "1", "--k", "1", "--eps", "inf"], "noise_amp"),
        (GEN + ["--s", "1", "--k", "1", "--eps", "-0.1"], "noise_amp"),
        (STAB[:-4] + ["--s", "1", "--k", "1", "--eps", "0,nan", "--trials", "2"],
         "noise_amp"),
        (STAB[:-4] + ["--s", "1", "--k", "1", "--eps", "-0.1,0", "--trials", "2"],
         "noise_amp"),
        (STAB + ["--s", "-1", "--k", "1"], "sparsity"),
        (RIP + ["--s", "-1", "--k", "1"], "s=-1"),
        (GEN + ["--s", "1", "--k", "1", "--setting", "weird"], "weird"),
        (["model", *N60], "power"),
        (["gen", *N60, "--s", "1", "--k", "1"], "power"),
        (["pt", *N60, "--s", "1", "--k", "1", "--trials", "2"], "power"),
        (["rip", *N60, "--s", "1", "--k", "1"], "power"),
        (["model", "--family", "nope", "--n", "32", "--m", "16"], "nope"),
        (STAB[:-4] + ["--s", "1", "--k", "1", "--eps", "0.1,0", "--trials", "2"],
         "sorted"),
    ])
    def test_invalid_value_fails_before_running(self, tmp_path, capsys, args, name):
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ArgumentError: ")
        assert name in err
        assert not out.exists()

    def test_solver_named_twice(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(self.STAB + ["--s", "1", "--k", "1", "--solver", "penalized_l1,penalized_l1",
                                 "--out", str(out)]) == 1
        one_line_error(capsys, "twice")
        assert not out.exists()

    def test_non_finite_tolerance(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["pt", "--family", "mtx1", "--n", "32", "--m", "16",
                     "--s", "1", "--k", "1", "--trials", "2", "--tol", "nan",
                     "--out", str(out)])
        assert code == 1
        one_line_error(capsys, "tol")
        assert not out.exists()


    @pytest.mark.parametrize("args, solver", [
        (PT + ["--s", "1,2", "--k", "1"], "solve_penalized_l1_batch"),
        (STAB + ["--s", "1", "--k", "1"], "solve_irls_lp_batch"),
    ], ids=["pt", "stability"])
    def test_failed_cell_fails_the_sweep(self, tmp_path, capsys, monkeypatch, args, solver):
        from demixcs import experiments

        def fail(*_):
            raise NumericalError("conjugate gradient lost positive curvature")

        monkeypatch.setattr(experiments, solver, fail)
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == 1
        one_line_error(capsys, "NumericalError")
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        PT + ["--s", "1", "--k", "1", "--lambda", "1e308"],
        STAB + ["--s", "1", "--k", "1", "--lambda", "1e160", "--solver", "penalized_l1"],
    ], ids=["pt", "stability"])
    def test_non_finite_solve_fails_the_sweep(self, tmp_path, capsys, args):
        # at the default max_iter: the solve stops within _FINITE_EVERY
        # steps, and numpy's overflow warnings stay off stderr
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == 1
        one_line_error(capsys, "NumericalError: 2 of 2 columns reached a non-finite iterate")
        assert not out.exists()


class TestByteDeterminism:
    PT_ARGS = ["pt", "--family", "mtx1", "--n", "64", "--m", "32",
               "--s", "1,2", "--k", "1", "--trials", "5", "--lambda", "1",
               "--seed", "3", "--max-iter", "1500"]

    def _run(self, tmp_path, name, threads):
        out = tmp_path / name
        args = self.PT_ARGS + ["--out", str(out), "--threads", str(threads)]
        assert main(args) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_identical_outputs_across_thread_counts(self, tmp_path):
        runs = [self._run(tmp_path, f"r{i}_{t}", t)
                for i, t in enumerate((1, 1, 4, 8))]
        names = set(runs[0])
        assert names == {"phase_transition.csv", "phase_transition.svg",
                         "run_manifest.txt"}
        for other in runs[1:]:
            for name in names:
                assert other[name] == runs[0][name]

    def test_stability_outputs_deterministic(self, tmp_path):
        args = ["stability", "--family", "mtx1", "--n", "32", "--m", "16",
                "--s", "1", "--k", "1", "--eps", "0,0.1", "--trials", "3",
                "--lambda", "1", "--seed", "5", "--max-iter", "1500"]
        outs = []
        for i, threads in enumerate((1, 4)):
            out = tmp_path / f"s{i}"
            assert main(args + ["--out", str(out), "--threads", str(threads)]) == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outs[0] == outs[1]
