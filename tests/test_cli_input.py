"""Bad input stops the CLI with a message and an exit code, never a
traceback or a silently ignored flag."""

import inspect
from types import SimpleNamespace

import pytest

from hardylab import cli
from hardylab import geometry
from hardylab import norms

BAD_FUNCTIONS = ["power:q=0;zeta=1,0", "cauchy:zeta=2,0", "power:q=-2;zeta=1,0",
                 "harmonic:n=2;y=1,0",
                 # a missing, repeated or unknown key, also the domain's
                 "cauchy", "power:zeta=1,0", "power:q=1.5;q=3;zeta=1,0",
                 "cauchy:zeta=1,0;q=2", "levi:domain=rescaled:base=ball:n=2;zeta=1,0"]
BAD_DOMAINS = ["ball", "ellipsoid:a=1,x", "rescaled:base=ball:n=2",
               "warped:base=ball:n=2;u=x2", "ball:n=2;n=2"]


@pytest.mark.parametrize("text", BAD_FUNCTIONS)
def test_function_spec_outside_its_domain_is_an_error(text, capsys):
    assert cli.run(["scan", "--f", text, "--p", "2"]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# every subcommand with a flag that reads a function or a domain string,
# the string last
FUNCTION_FLAGS = [
    ["norm", "--p", "2", "--f"], ["scan", "--p", "2", "--f"],
    ["local", "--p", "2", "--center", "1,0", "--radius", "0.5", "--f"],
    ["witness", "--f"], ["density-demo", "--base"],
    ["metric", "--g", "const:0", "--f"], ["metric", "--f", "cauchy:zeta=1,0", "--g"]]
DOMAIN_FLAGS = [
    ["scan", "--f", "cauchy:zeta=1,0", "--p", "2", "--domain"],
    ["levi-check", "--domain"], ["lemma", "--id", "4.2", "--domain"],
    ["lemma", "--id", "4.3", "--domain"]]
MALFORMED = ([(argv, text) for argv in FUNCTION_FLAGS for text in BAD_FUNCTIONS]
             + [(argv, text) for argv in DOMAIN_FLAGS for text in BAD_DOMAINS])


@pytest.mark.parametrize("argv,text", MALFORMED,
                         ids=lambda x: " ".join(x) if isinstance(x, list) else x)
def test_a_malformed_function_or_domain_string_is_an_error(argv, text, capsys):
    assert cli.run([*argv, text]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# the lemma flags each id reads: --domain 4.2, 4.3; --lam 3.1;
# --n 2.2, 2.5, 5.1; --q 2.2, 4.3
FLAG_VALUES = {"--domain": "ball:n=2", "--lam": "warped", "--n": "3", "--q": "2"}
UNREAD = ([("--domain", i) for i in ("2.2", "2.5", "3.1", "5.1")]
          + [("--lam", i) for i in ("2.2", "2.5", "4.2", "4.3", "5.1")]
          + [("--n", i) for i in ("3.1", "4.2", "4.3")]
          + [("--q", i) for i in ("2.5", "3.1", "4.2", "5.1")])
CASES = [["--id", i, flag, FLAG_VALUES[flag]] for flag, i in UNREAD] \
    + [["--id", "5.1", "--n", "2"]]


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: f"{argv[1]}{argv[2]}={argv[3]}")
def test_lemma_flag_the_id_does_not_read(argv, capsys):
    assert len(CASES) == 17
    assert cli.run(["lemma", *argv]) == cli.EXIT_USAGE
    assert argv[2] in capsys.readouterr().err


@pytest.mark.parametrize("bounds,kind,rows", [
    (["--surface", "level", "--kmax", "0"], "level", 1),
    (["--kmin", "0", "--kmax", "3"], "radial", 4),
], ids=["level-kmax0", "radial-kmin0"])
def test_a_zero_grid_bound_is_a_bound(bounds, kind, rows, tmp_path):
    out = tmp_path / "scan.csv"
    code = cli.run(["scan", "--f", "cauchy:zeta=1,0", "--p", "2", *bounds,
                    "--out", str(out)])
    assert code in (cli.EXIT_OK, cli.EXIT_INCONCLUSIVE)
    lines = out.read_text().splitlines()[2:]
    assert len(lines) == rows
    if kind == "radial":  # k = 0 is r = 0, not the default k_min = 2
        assert float(lines[0].split(",")[4]) == 0.0


@pytest.mark.parametrize("surface", [[], ["--surface", "level"]],
                         ids=["radial", "level"])
def test_negative_grid_index_is_a_usage_error(surface, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = cli.run(["scan", "--f", "cauchy:zeta=1,0", "--p", "2", *surface,
                    "--kmin", "-3", "--kmax", "3", "--out", str(out)])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--kmin/--kmax" in err and "k_min = -3" in err
    assert not out.exists()


@pytest.mark.parametrize("count", ["-5", "0", "99"])
def test_count_below_the_rule_floor_is_a_usage_error(count, capsys):
    argv = ["scan", "--f", "cauchy:zeta=1,0", "--p", "2", "--surface", "level",
            "--count", count]
    assert cli.run(argv) == cli.EXIT_USAGE
    assert "--count" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--criteria", "11"], ["--criteria", "0"], ["--criteria", "1,x"],
    ["--criteria", "2,"], ["--seeds", "x"], ["--seeds", "7,1.5"],
], ids=lambda flags: f"{flags[0]}={flags[1]}")
def test_reproduce_list_outside_its_ids_is_a_usage_error(flags, tmp_path, capsys):
    outdir = tmp_path / "out"
    assert cli.run(["reproduce", "--out", str(outdir), *flags]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert flags[0] in err and "Traceback" not in err
    if flags[0] == "--criteria":
        assert "ids 1-10" in err
    assert not outdir.exists()


@pytest.mark.parametrize("cap,names", [
    (["--center", "1,0", "--radius", "-1"], "radius -1"),
    (["--center", "1,0", "--radius", "0"], "radius 0"),
    (["--center", "1,0,0", "--radius", "0.5"], "3 coordinates"),
    # off the unit sphere: the caps of S cap B((2, 0), 0.5) and of
    # S cap B((0.5, 0), 0.5) are empty, not the cap about (1, 0)
    (["--center", "2,0", "--radius", "0.5"], "unit sphere"),
    (["--center", "0.5,0", "--radius", "0.5"], "unit sphere"),
], ids=["negative-radius", "zero-radius", "center-of-n3", "center-outside",
        "center-inside"])
def test_a_cap_local_cannot_mean_is_a_usage_error(cap, names, tmp_path, capsys):
    out = tmp_path / "local.csv"
    code = cli.run(["local", "--f", "cauchy:zeta=1,0", "--p", "2", *cap,
                    "--out", str(out)])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--center/--radius" in err and names in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("terms", ["0", "-1", "52", "54"])
def test_metric_of_no_terms_is_a_usage_error(terms, tmp_path, capsys):
    out = tmp_path / "metric.csv"
    code = cli.run(["metric", "--f", "cauchy:zeta=1,0", "--g", "const:0",
                    "--terms", terms, "--out", str(out)])
    assert code == cli.EXIT_USAGE
    assert "--terms" in capsys.readouterr().err
    assert not out.exists()



@pytest.mark.parametrize("targets", ["0", "-1"])
def test_witness_of_no_targets_is_a_usage_error(targets, monkeypatch, tmp_path,
                                                capsys):
    monkeypatch.setattr(cli.ex, "totally_unbounded_witness",
                        lambda *a: pytest.fail("the witness search ran"))
    out = tmp_path / "witness.csv"
    code = cli.run(["witness", "--f", "log:zeta=1,0", "--targets", targets,
                    "--out", str(out)])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--targets" in err and "targets must be an integer >= 1" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("bound", ["0", "-5", "inf", "nan", "x"])
def test_witness_bound_not_finite_and_positive_is_a_usage_error(
        bound, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli.ex, "totally_unbounded_witness",
                        lambda *a: pytest.fail("the witness search ran"))
    out = tmp_path / "witness.csv"
    code = cli.run(["witness", "--f", "const:1", "--bound", bound,
                    "--out", str(out)])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"--bound: {bound!r}: bound must be > 0, finite" in err
    assert "Traceback" not in err and not out.exists()


def test_non_integer_env_seed_is_a_usage_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("HARDY_LAB_SEED", "abc")
    out = tmp_path / "scan.csv"
    code = cli.run(["scan", "--f", "const:2", "--p", "2", "--kmin", "2",
                    "--kmax", "8", "--out", str(out)])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "HARDY_LAB_SEED: bad value 'abc'" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--pairs", "0"), ("--pairs", "-2"), ("--pairs", "1.5"), ("--eta", "0"),
    ("--eta", "-1"), ("--beta", "0"), ("--beta", "-1"),
])
def test_levi_check_flag_out_of_range_is_a_usage_error(flag, value, monkeypatch,
                                                       tmp_path, capsys):
    for name in ("check_levi_estimate", "levi_form_min_eigenvalue"):
        monkeypatch.setattr(geometry, name, lambda *a, **kw: pytest.fail("ran"))
    out = tmp_path / "levi.csv"
    code = cli.run(["levi-check", flag, value, "--out", str(out)])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{flag}: {value!r}: {flag[2:]} must be" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--j", "0"), ("--j", "-1"), ("--j", "1.5"), ("--delta", "0"),
    ("--delta", "-1"), ("--delta", "nan"), ("--delta", "inf"), ("--delta", "x"),
])
def test_density_demo_flag_out_of_range_is_a_usage_error(flag, value, monkeypatch,
                                                         tmp_path, capsys):
    monkeypatch.setattr(cli.ex, "density_demo",
                        lambda *a, **kw: pytest.fail("the demo ran"))
    out = tmp_path / "density.csv"
    code = cli.run(["density-demo", flag, value, "--out", str(out)])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{flag}: {value!r}: {flag[2:]} must be" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("value", ["1e-7", "9.5367431640625e-07"])
def test_density_demo_delta_at_or_below_the_floor_is_a_usage_error(
        value, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli.ex, "density_demo",
                        lambda *a, **kw: pytest.fail("the demo ran"))
    out = tmp_path / "density.csv"
    code = cli.run(["density-demo", "--delta", value, "--out", str(out)])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--delta: " in err and "floor 2^-20 = 9.53674e-07" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("argv,c,reach", [
    (["--delta", "1e-6"], "c=1.454e-10", "= 145.4 "),
    (["--q", "4"], "c=0.0001152", "= 3.644 "),
    (["--q", "10"], "c=0.0002222", "= 0.01402 "),
])
def test_density_demo_whose_witnesses_cannot_reach_the_bound_is_a_usage_error(
        argv, c, reach, tmp_path, capsys):
    out = tmp_path / "density.csv"
    code = cli.run(["density-demo", *argv, "--out", str(out)])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--delta, --q: " in err and c in err and reach in err
    assert "deepest probe r = 1 - 1e-09" in err and "witness bound 1000" in err
    assert "Traceback" not in err and not out.exists()


def test_level_scan_of_a_warped_domain_takes_the_thin_shell(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = cli.run(["scan", "--f", "cauchy:zeta=1,0", "--p", "2", "--surface",
                    "level", "--domain", "warped:base=ball:n=2;u=x1", "--kmax", "2",
                    "--out", str(out)])
    assert code in (cli.EXIT_OK, cli.EXIT_INCONCLUSIVE)
    assert "thin-shell" in capsys.readouterr().out
    rows = out.read_text().splitlines()[2:]
    assert len(rows) == 3
    assert not any("failed:" in r or "truncated" in r for r in rows)


def test_level_scan_prints_the_rule_it_took(tmp_path, capsys):
    # a Levi kernel on the ellipsoid takes the disk chart, a zonal rule
    code = cli.run(["scan", "--f", "levi:domain=ellipsoid:a=1,2;zeta=1,0", "--p",
                    "1.5", "--surface", "level", "--domain", "ellipsoid:a=1,2",
                    "--kmax", "2", "--out", str(tmp_path / "scan.csv")])
    assert code in (cli.EXIT_OK, cli.EXIT_INCONCLUSIVE)
    assert "surface=level:ellipsoid:a=1,2, rule=zonal)" in capsys.readouterr().out


@pytest.mark.parametrize("lemma", ["4.2", "4.3"])
def test_lemma_on_a_warped_domain_is_a_usage_error(lemma, monkeypatch, capsys):
    # the verification must not run: its scans on a warped domain all fail
    name = cli.LEMMAS[lemma][0]
    monkeypatch.setattr(cli.ex, name, lambda **kw: pytest.fail(f"{name} ran"))
    domain = "warped:base=ellipsoid:a=1,2;u=x1"
    assert cli.run(["lemma", "--id", lemma, "--domain", domain]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert domain in err and "Traceback" not in err


def test_count_on_a_thin_shell_level_scan_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = cli.run(["scan", "--f", "cauchy:zeta=1,0", "--p", "2", "--surface",
                    "level", "--domain", "warped:base=ball:n=2;u=x1", "--kmax", "2",
                    "--count", "1000", "--out", str(out)])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--count" in err and "warped:base=ball:n=2;u=x1" in err
    assert not out.exists()


def test_warped_lemma_3_1_still_reads_count(monkeypatch):
    # no scan of lemma 3.1 reads --count (its rho side takes the disk chart,
    # its warped lambda side the thin shell); this pins only that the flag
    # reaches cfg, as the level-sets benchmark passes it
    seen = {}

    def recorder(cfg, lam_kind):
        seen.update(count=cfg.count, lam=lam_kind)
        return cli.ex.LemmaReport("3.1", [])

    monkeypatch.setattr(cli.ex, "verify_lemma_3_1", recorder)
    argv = ["lemma", "--id", "3.1", "--lam", "warped", "--count", "20000"]
    assert cli.run(argv) == cli.EXIT_OK
    assert seen == {"count": 20000, "lam": "warped"}


@pytest.mark.parametrize("command", [
    ["norm", "--f", "cauchy:zeta=1,0"], ["scan", "--f", "cauchy:zeta=1,0"],
    ["local", "--f", "cauchy:zeta=1,0", "--center", "1,0", "--radius", "0.5"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("p", ["nan", "inf", "-inf", "-2", "0", "x"])
def test_exponent_p_outside_its_range_is_a_usage_error(command, p, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert cli.run([*command, f"--p={p}", "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--p" in err and "p must be > 0, finite" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("argv", [
    ["metric", "--f", "cauchy:zeta=1,0", "--g", "const:0"],
    ["density-demo"], ["lemma", "--id", "2.2"], ["lemma", "--id", "4.3"],
], ids=lambda argv: " ".join(argv[:2]))
@pytest.mark.parametrize("q", ["1", "0.5", "0", "-2", "nan"])
def test_exponent_q_of_at_most_one_is_a_usage_error(argv, q, capsys):
    assert cli.run([*argv, f"--q={q}"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--q" in err and "q must be > 1" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["density-demo"], ["lemma", "--id", "2.2"]],
                         ids=lambda argv: argv[0])
def test_infinite_q_of_a_power_kernel_is_a_usage_error(argv, capsys):
    assert cli.run([*argv, "--q", "inf"]) == cli.EXIT_USAGE
    assert "q must be > 1, finite" in capsys.readouterr().err


def test_metric_reads_an_infinite_q(monkeypatch):
    seen = {}

    def recorder(f, g, mspec, cfg):
        seen["q"] = mspec.q
        return SimpleNamespace(value=0.0, uncertainty=0.0, terms=[])

    monkeypatch.setattr(cli.norms, "intersection_metric", recorder)
    argv = ["metric", "--f", "cauchy:zeta=1,0", "--g", "const:0", "--q", "inf"]
    assert cli.run(argv) == cli.EXIT_OK
    assert seen == {"q": float("inf")}


@pytest.mark.parametrize("lemma", sorted(cli.LEMMAS))
def test_lemma_verification_takes_exactly_its_flags(lemma):
    # a parameter that no lemma flag sets is a setting only tests reach
    name, reads = cli.LEMMAS[lemma]
    params = inspect.signature(getattr(cli.ex, name)).parameters
    assert set(params) == {"cfg"} | {"lam_kind" if k == "lam" else k for k in reads}


@pytest.mark.parametrize("lemma,n", [("2.2", "1"), ("2.2", "0"), ("2.5", "1"),
                                     ("2.5", "0"), ("2.5", "-1")])
def test_lemma_dimension_below_two_is_a_usage_error(lemma, n, monkeypatch, capsys):
    name = cli.LEMMAS[lemma][0]
    monkeypatch.setattr(cli.ex, name, lambda **kw: pytest.fail(f"{name} ran"))
    assert cli.run(["lemma", "--id", lemma, "--n", n]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"lemma {lemma} needs --n >= 2" in err and "Traceback" not in err


@pytest.mark.parametrize("lemma", ["4.2", "4.3"])
def test_lemma_domain_below_two_is_a_usage_error(lemma, monkeypatch, capsys):
    name = cli.LEMMAS[lemma][0]
    monkeypatch.setattr(cli.ex, name, lambda **kw: pytest.fail(f"{name} ran"))
    assert cli.run(["lemma", "--id", lemma, "--domain", "ball:n=1"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"lemma {lemma} needs a --domain in C^n, n >= 2" in err
    assert "Traceback" not in err


HARMONIC = "harmonic:n=3;y=1,0,0"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    # a pole of another dimension than the level sets'
    ["scan", "--f", "cauchy:zeta=1,0", "--p", "2", "--surface", "level",
     "--domain", "ball:n=3"],
    ["scan", "--f", "cauchy:zeta=1,0", "--p", "2", "--surface", "level",
     "--domain", "ellipsoid:a=1,2,3"],
    # a harmonic kernel on the complex sphere or a cap of it
    ["scan", "--f", HARMONIC, "--p", "2"],
    ["norm", "--f", HARMONIC, "--p", "2"],
    ["local", "--f", HARMONIC, "--p", "2", "--center", "1,0,0", "--radius", "0.5"],
    # a sum of harmonic kernels evaluated at complex points
    ["metric", "--f", HARMONIC, "--g", "harmonic:n=3;y=0,1,0", "--terms", "2"],
], ids=["pole-C2-ball-C3", "pole-C2-ellipsoid-C3", "harmonic-scan", "harmonic-norm",
        "harmonic-local", "harmonic-metric"])
def test_a_function_off_its_surface_is_an_error(argv, capsys):
    assert cli.run(argv) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["scan", "--f", "cauchy:zeta=1", "--p", "0.5"],
    ["local", "--f", "cauchy:zeta=1", "--p", "0.5", "--center", "1", "--radius", "0.5"],
], ids=["scan", "local"])
def test_the_unit_disk_scans_without_a_failed_point(argv, tmp_path):
    out = tmp_path / "disk.csv"
    assert cli.run([*argv, "--out", str(out)]) == cli.EXIT_OK
    labels = [line.split(",")[2] for line in out.read_text().splitlines()[2:]]
    assert labels == ["point"] * len(norms.RADIAL_MC.ks())
