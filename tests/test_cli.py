import csv

import numpy as np
import pytest

from hardylab import cli, norms


def run(args):
    return cli.run(args)


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(["definitely-not-a-command"]) == cli.EXIT_USAGE

    def test_missing_required_flag(self):
        assert run(["norm"]) == cli.EXIT_USAGE

    def test_norm_of_divergent_function_errors(self):
        assert run(["norm", "--f", "cauchy:zeta=1,0", "--p", "2"]) == cli.EXIT_ERROR

    @pytest.mark.parametrize("argv", [
        ["norm", "--f", "const:1", "--p", "2", "--plot-data", "x.txt"],
        ["norm", "--f", "const:1", "--p", "2", "--domain", "ball:n=2"],
        ["levi-check", "--pairs", "2000", "--plot-data", "x.txt"],
        ["levi-check", "--pairs", "2000", "--count", "2000"],
        ["lemma", "--id", "2.5", "--plot-data", "x.txt"],
        ["witness", "--f", "log:zeta=1,0", "--bound", "10", "--plot-data", "x.txt"],
        ["witness", "--f", "log:zeta=1,0", "--bound", "10", "--count", "2000"],
        ["density-demo", "--delta", "10", "--j", "1", "--count", "2000",
         "--plot-data", "x.txt"],
        ["metric", "--f", "const:2", "--g", "const:1", "--terms", "2",
         "--plot-data", "x.txt"],
        ["reproduce", "--criteria", "2", "--seeds", "7", "--plot-data", "x.txt"],
        ["reproduce", "--criteria", "2", "--seeds", "7", "--count", "2000"],
        ["reproduce", "--criteria", "2", "--seeds", "7", "--seed", "11"],
    ], ids=lambda argv: argv[0] + argv[-2])
    def test_flag_the_command_does_not_read(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == cli.EXIT_USAGE

    def test_levi_check_violations_exit(self):
        assert run(["levi-check", "--beta", "1.5", "--pairs", "2000"]) == cli.EXIT_ERROR
        assert run(["levi-check", "--pairs", "2000"]) == cli.EXIT_OK


class TestCsvOutput:
    def test_norm_row(self, tmp_path, capsys):
        out = tmp_path / "norm.csv"
        assert run(["norm", "--f", "const:1", "--p", "2", "--out", str(out)]) == 0
        text = out.read_text().splitlines()
        assert text[0] == f"# {cli.CSV_VERSION}"
        assert text[1].split(",") == cli.CSV_HEADER
        row = dict(zip(cli.CSV_HEADER, text[2].split(",")))
        assert float(row["value"]) == pytest.approx(np.sqrt(2 * np.pi ** 2))

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["scan", "--f", "power:q=1.5;zeta=1,0", "--p", "1.2",
                "--kmin", "4", "--kmax", "12", "--seed", "11"]
        assert run(args + ["--out", str(a)]) == 0
        norms._exact_memo.clear()  # a rerun is a fresh process
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_verdict_rederivable_from_rows(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["scan", "--f", "cauchy:zeta=1,0", "--p", "2",
                    "--kmin", "4", "--kmax", "20", "--out", str(out)]) == 0
        with open(out) as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        values = np.array([float(r["value"]) for r in rows])
        stderrs = np.array([float(r["stderr"]) for r in rows])
        ks = np.rint(-np.log2(1 - np.array([float(r["grid_param"]) for r in rows])))
        sc = norms.NormScan(
            p=2.0, grid=norms.ApproachGrid("radial", int(ks[0]), int(ks[-1])),
            surface=norms.SphereSurface(2), fspec=None, values=values,
            stderrs=stderrs, flags=[""] * len(values),
            methods=["zonal"] * len(values))
        v = norms.classify(sc)
        assert v.klass == rows[0]["verdict"]
        assert v.rate == pytest.approx(float(rows[0]["rate"]), rel=1e-12)

    def test_unwritable_path(self, tmp_path):
        code = run(["scan", "--f", "const:1", "--p", "2", "--kmin", "2",
                    "--kmax", "8", "--out", "/nonexistent-dir/x.csv"])
        assert code == cli.EXIT_CANTCREAT


class TestPlotData:
    def test_plot_columns(self, tmp_path):
        out = tmp_path / "plot.txt"
        assert run(["scan", "--f", "cauchy:zeta=1,0", "--p", "2.5",
                    "--kmin", "4", "--kmax", "14", "--plot-data", str(out)]) == 0
        lines = [ln for ln in out.read_text().splitlines()
                 if not ln.startswith("#")]
        cols = np.array([[float(x) for x in ln.split()] for ln in lines])
        assert cols.shape[1] == 4
        # power-divergent: model fit tracks the data within a few percent
        assert np.all(np.abs(cols[:, 3] / cols[:, 1] - 1) < 0.2)


class TestCommands:
    def test_lemma_two_two(self, tmp_path):
        out = tmp_path / "l22.csv"
        assert run(["lemma", "--id", "2.2", "--seed", "7",
                    "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("argv, rows", [
        (["--id", "2.5"],
         ["lemma,2.5,complement bound,2,,,,Bounded,0.19090033103112025,"
          "0.47099067662142646,True,7"]),
        (["--id", "5.1", "--n", "3"],
         ["lemma,5.1,harmonic kernel,1.7,,,,Bounded,1.2539345971500555,"
          "0.85782193700431719,True,7",
          "lemma,5.1,harmonic kernel,2,,,,LogDivergent,6.5084947022294282,"
          "0.99923669225496947,True,7",
          "lemma,5.1,harmonic kernel,2.2999999999999998,,,,PowerDivergent,"
          "0.36370858148787027,0.99223299990979208,True,7",
          "lemma,5.1,harmonic kernel local U,2,,,,LogDivergent,"
          "6.4006290856547743,0.99984558526190648,True,7"]),
    ], ids=["2.5", "5.1"])
    def test_lemma_csv_text(self, argv, rows, tmp_path):
        # both run on deterministic paths (zonal, real-zonal), so the text is
        # fixed; experiment_id names the subcommand
        out = tmp_path / "lemma.csv"
        assert run(["lemma", *argv, "--seed", "7", "--out", str(out)]) == 0
        assert out.read_text().splitlines() == [
            "# hardylab-csv v1", ",".join(cli.CSV_HEADER), *rows]

    @pytest.mark.parametrize("lemma, ps", [("4.2", [1.5, 5.0]), ("4.3", [1.2, 2.5])])
    @pytest.mark.parametrize("domain", ["ellipsoid:a=1,2,3", "ball:n=3"])
    def test_levi_lemmas_run_in_c3(self, lemma, ps, domain, tmp_path, capsys):
        # the pole is e_1 in C^3 and p = 2n - 1, (2n - 1)q/n read n = 3; at
        # 2000 Monte Carlo nodes the ellipsoid's verdicts may be Inconclusive
        out = tmp_path / "lemma.csv"
        code = run(["lemma", "--id", lemma, "--domain", domain, "--count", "2000",
                    "--seed", "7", "--out", str(out)])
        assert code in (cli.EXIT_OK, cli.EXIT_INCONCLUSIVE)
        assert "error" not in capsys.readouterr().err
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        assert [float(r["p"]) for r in rows] == pytest.approx(ps)

    def test_metric_command(self, capsys):
        code = run(["metric", "--f", "power:q=1.5;zeta=1,0", "--g", "const:1",
                    "--q", "1.5", "--terms", "6", "--seed", "7"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "d(f, g) =" in printed

    def test_witness_command(self):
        assert run(["witness", "--f", "log:zeta=1,0", "--targets", "2",
                    "--bound", "10"]) == 0

    def test_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HARDY_LAB_SEED", "13")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(["scan", "--f", "const:2", "--p", "2", "--kmin", "2",
                    "--kmax", "8", "--out", str(a)]) == 0
        assert run(["scan", "--f", "const:2", "--p", "2", "--kmin", "2",
                    "--kmax", "8", "--seed", "13", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_inconclusive_scan_exit_code(self):
        # too few level points for a verdict -> exit 2
        code = run(["scan", "--f", "levi:domain=ellipsoid:a=1,2;zeta=1,0",
                    "--p", "1.5", "--surface", "level", "--kmax", "4",
                    "--domain", "ellipsoid:a=1,2", "--count", "20000"])
        assert code == cli.EXIT_INCONCLUSIVE

    def test_flag_overrides_config_file(self, tmp_path):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("seed=21\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["--config", str(cfgfile), "scan", "--f", "const:2",
                    "--p", "2", "--kmin", "2", "--kmax", "8", "--seed", "7",
                    "--out", str(a)]) == 0
        assert run(["scan", "--f", "const:2", "--p", "2", "--kmin", "2",
                    "--kmax", "8", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_seed(self, tmp_path):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("seed=21\n")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(["--config", str(cfgfile), "scan", "--f", "const:2",
                    "--p", "2", "--kmin", "2", "--kmax", "8",
                    "--out", str(a)]) == 0
        assert run(["scan", "--f", "const:2", "--p", "2", "--kmin", "2",
                    "--kmax", "8", "--seed", "21", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_comments_and_blank_lines(self, tmp_path):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("# run seed\n\n  seed=21\n\n# end\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["--config", str(cfgfile), "scan", "--f", "const:2",
                    "--p", "2", "--kmin", "2", "--kmax", "8",
                    "--out", str(a)]) == 0
        assert run(["scan", "--f", "const:2", "--p", "2", "--kmin", "2",
                    "--kmax", "8", "--seed", "21", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("text, message", [
        ("seed=abc\n", "bad value 'abc'"),
        ("count=500\n", "only seed is read, not count"),
        ("sede=21\n", "unknown config key 'sede'"),
    ])
    def test_bad_config_file_is_usage_error(self, tmp_path, capsys, text, message):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text(text)
        assert run(["--config", str(cfgfile), "scan", "--f", "const:2",
                    "--p", "2", "--kmin", "2", "--kmax", "8"]) == cli.EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.txt"
        assert run(["--config", str(missing), "scan", "--f", "const:2",
                    "--p", "2"]) == cli.EXIT_USAGE
        assert str(missing) in capsys.readouterr().err

    def test_reproduce_single_criterion(self, tmp_path):
        outdir = tmp_path / "acc"
        code = run(["reproduce", "--criteria", "2", "--seeds", "7",
                    "--out", str(outdir)])
        assert code == 0
        assert (outdir / "criterion_02.csv").exists()
