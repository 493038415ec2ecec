"""Command-line front end: norm scans, lemma verifications, witness searches,
the density demo, and a reproduce command emitting one CSV per acceptance
criterion.

Exit codes: 0 all pass flags true, 2 at least one Inconclusive verdict,
1 failure/error, 64 usage error, 73 unwritable output path.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import acceptance
from . import experiments as ex
from . import functions as fn
from . import norms
from . import quadrature as quad
from .geometry import parse_domain

CSV_HEADER = ["experiment_id", "lemma_id", "case_label", "p", "grid_param",
              "value", "stderr", "verdict", "rate", "r2", "passed", "seed"]
CSV_VERSION = "hardylab-csv v1"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_CANTCREAT = 73


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """The --config file: ``seed=<int>`` lines and ``#`` comments; a --seed
    flag overrides it."""

    seed: int = None

    @classmethod
    def read(cls, path):
        """The config of the file at ``path``; a missing file, a key other than
        seed or a seed that is not an int raises UsageError."""
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"--config {path}: {exc}") from exc
        seed = None
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key != "seed":
                raise UsageError(f"--config {path}: unknown config key {key!r}; "
                                 f"only seed is read, not {key}")
            try:
                seed = int(val)
            except ValueError:
                raise UsageError(f"--config {path}: config key 'seed': "
                                 f"bad value {val!r}") from None
        return cls(seed)


class _Parser(argparse.ArgumentParser):
    """Raises UsageError (exit 64) on bad input; flags match only in full, so
    ``--seed`` is not read as ``--seeds``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def above(name, floor, inf_ok=False):
    """argparse type of a number flag (an exponent, a radius): a number above
    ``floor``, finite unless ``inf_ok``; anything else is a usage error."""
    def parse(text):
        try:
            x = float(text)
        except ValueError:
            x = math.nan
        if not (x > floor and (inf_ok or math.isfinite(x))):
            bound = f"> {floor:g}" + (" or inf" if inf_ok else ", finite")
            raise argparse.ArgumentTypeError(f"{text!r}: {name} must be {bound}")
        return x
    return parse


def at_least(name, least):
    """argparse type of a count flag: an integer >= ``least``; anything else
    is a usage error."""
    def parse(text):
        try:
            k = int(text)
        except ValueError:
            k = None
        if k is None or k < least:
            raise argparse.ArgumentTypeError(
                f"{text!r}: {name} must be an integer >= {least}")
        return k
    return parse


def fmt(x):
    """17 significant digits for every float, or the overflow literal."""
    if isinstance(x, float):
        if np.isnan(x):
            return "nan"
        if np.isinf(x) or abs(x) > 1e300:
            return "overflow"
        return f"{x:.17g}"
    return str(x)


def write_csv(rows, path):
    try:
        with open(path, "w", newline="") as fh:
            fh.write(f"# {CSV_VERSION}\n")
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for row in rows:
                writer.writerow([fmt(row.get(col, "")) for col in CSV_HEADER])
    except OSError as exc:
        raise SystemExit(EXIT_CANTCREAT) from exc


def emit_plot_data(sc, verdict, path):
    """Grid parameter, value, stderr plus model-fit columns, plain text."""
    x = sc.grid.ks().astype(float) * np.log(2.0)
    if verdict.klass == "PowerDivergent" and np.isfinite(verdict.rate):
        with np.errstate(invalid="ignore", divide="ignore"):
            logv = np.log(np.maximum(sc.values, 1e-300))
        b = np.nanmean(logv - verdict.rate * x)
        fit = np.exp(verdict.rate * x + b)
        model = "power"
    elif np.isfinite(verdict.rate):
        b = np.nanmean(sc.values - verdict.rate * x)
        fit = verdict.rate * x + b
        model = "log-linear"
    else:
        fit = np.full_like(x, np.nan)
        model = "none"
    try:
        with open(path, "w") as fh:
            fh.write(f"# {sc.describe()}\n")
            fh.write(f"# verdict={verdict.klass} rate={fmt(verdict.rate)} "
                     f"r2={fmt(verdict.r2)} model={model}\n")
            fh.write("# grid_param value stderr model_fit\n")
            for g, v, s, m in zip(sc.grid.values(), sc.values, sc.stderrs, fit):
                fh.write(f"{fmt(float(g))} {fmt(float(v))} {fmt(float(s))} "
                         f"{fmt(float(m))}\n")
    except OSError as exc:
        raise SystemExit(EXIT_CANTCREAT) from exc


def build_parser():
    ap = _Parser(prog="hardylab", description=__doc__)
    ap.add_argument("--config", help="file of seed=<int> and # comment lines; "
                                     "--seed overrides it")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, count=True, plot_data=False):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="CSV output path")
        if plot_data:
            p.add_argument("--plot-data", default=None, help="plot data output path")
        if count:
            p.add_argument("--count", type=int, default=None, help="MC node budget")

    p = sub.add_parser("norm", help="Hardy seminorm of a function")
    common(p)
    p.add_argument("--f", required=True)
    p.add_argument("--p", type=above("p", 0), required=True)

    p = sub.add_parser("scan", help="boundary-approach scan plus verdict")
    common(p, plot_data=True)
    p.add_argument("--f", required=True)
    p.add_argument("--p", type=above("p", 0), required=True)
    p.add_argument("--domain", default="ball:n=2")
    p.add_argument("--surface", choices=["sphere", "level"], default="sphere")
    p.add_argument("--kmin", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)

    p = sub.add_parser("local", help="cap-restricted scan on the ball")
    common(p, plot_data=True)
    p.add_argument("--f", required=True)
    p.add_argument("--p", type=above("p", 0), required=True)
    p.add_argument("--center", required=True, help="cap center, e.g. 1,0")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--complement", action="store_true")

    p = sub.add_parser("levi-check", help="quadratic lower bound for Re Q")
    common(p, count=False)
    p.add_argument("--domain", default="ball:n=2")
    p.add_argument("--beta", type=above("beta", 0), default=None,
                   help="default: min Levi eigenvalue / 3")
    p.add_argument("--eta", type=above("eta", 0), default=0.5)
    p.add_argument("--pairs", type=at_least("pairs", 1), default=10_000)

    p = sub.add_parser("lemma", help="run one lemma verification report")
    common(p)
    p.add_argument("--id", required=True,
                   choices=["2.2", "2.5", "3.1", "4.2", "4.3", "5.1"])
    p.add_argument("--n", type=int, default=None, help="lemmas 2.2, 2.5, 5.1")
    p.add_argument("--q", type=above("q", 1), default=None,
                   help="lemmas 2.2, 4.3")
    p.add_argument("--domain", default=None, help="lemmas 4.2, 4.3")
    p.add_argument("--lam", default=None, choices=["identity", "rescaled", "warped"],
                   help="lemma 3.1")

    p = sub.add_parser("witness", help="total-unboundedness witness search")
    common(p, count=False)
    p.add_argument("--f", required=True)
    p.add_argument("--targets", type=at_least("targets", 1), default=4)
    p.add_argument("--bound", type=above("bound", 0), default=1e3)

    p = sub.add_parser("density-demo", help="metric-small, witness-large demo")
    common(p)
    p.add_argument("--q", type=above("q", 1), default=1.5)
    p.add_argument("--delta", type=above("delta", 0), default=0.01)
    p.add_argument("--j", type=at_least("j", 1), default=4)
    p.add_argument("--base", default="poly:z1^2+3")

    p = sub.add_parser("metric", help="intersection-space metric of two functions")
    common(p)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--q", type=above("q", 1, inf_ok=True), default=1.5)
    p.add_argument("--terms", type=int, default=20)

    p = sub.add_parser("reproduce", help="full acceptance suite, one CSV each")
    p.add_argument("--out", default=None, help="CSV output directory")
    p.add_argument("--criteria", default=None,
                   help="comma list, e.g. 1,2,5 (default: all)")
    p.add_argument("--seeds", default=None, help="comma list (default: 7,11,13)")
    return ap


def _seed(args, file_cfg):
    if args.seed is not None:
        return args.seed
    if file_cfg.seed is not None:
        return file_cfg.seed
    text = os.environ.get("HARDY_LAB_SEED", "7")
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"HARDY_LAB_SEED: bad value {text!r}; "
                         f"the seed must be an integer") from None


def _quad_config(args, file_cfg):
    cfg = norms.QuadConfig(seed=_seed(args, file_cfg))
    if getattr(args, "count", None) is not None:  # levi-check, witness take none
        if args.count < quad.MIN_COUNT:
            raise UsageError(f"--count {args.count}: the node budget must be "
                             f"at least {quad.MIN_COUNT}")
        cfg = replace(cfg, count=args.count)
    return cfg


def _grid(kind, args, default):
    """The scan grid of --kmin/--kmax; a bound left unset is the default's.
    Bounds the grid refuses are a usage error."""
    try:
        return norms.ApproachGrid(
            kind, default.k_min if args.kmin is None else args.kmin,
            default.k_max if args.kmax is None else args.kmax)
    except norms.NormError as exc:
        raise UsageError(f"--kmin/--kmax: {exc}") from exc


def _int_list(flag, text, valid=None):
    """The integers of a comma list.  A non-integer, or an id outside
    ``valid`` when given, is a usage error naming what the flag accepts."""
    accepted = "integers" if valid is None else f"ids {min(valid)}-{max(valid)}"
    try:
        ids = tuple(int(s) for s in text.split(","))
    except ValueError:
        ids = None
    if ids is None or (valid is not None and not all(i in valid for i in ids)):
        raise UsageError(f"{flag} {text!r}: expected a comma list of {accepted}")
    return ids


def _scan_rows(name, sc, verdict, seed):
    rows = []
    passed = verdict.klass != "Inconclusive"
    for x, v, s, flag in zip(sc.grid.values(), sc.values, sc.stderrs, sc.flags):
        rows.append({
            "experiment_id": name, "lemma_id": "", "case_label": flag or "point",
            "p": sc.p, "grid_param": float(x), "value": float(v),
            "stderr": float(s), "verdict": verdict.klass, "rate": verdict.rate,
            "r2": verdict.r2, "passed": passed, "seed": seed,
        })
    return rows


def _scan_exit(args, sc, seed):
    """Print the verdict of a scan or local scan, write its CSV and plot
    data, and return the exit code."""
    v = norms.classify(sc)
    print(f"{sc.describe()}: {v.klass} rate={fmt(v.rate)} r2={fmt(v.r2)}")
    if args.out:
        write_csv(_scan_rows(args.command, sc, v, seed), args.out)
    if args.plot_data:
        emit_plot_data(sc, v, args.plot_data)
    return EXIT_OK if v.klass != "Inconclusive" else EXIT_INCONCLUSIVE


def _report_exit(report):
    if report.passed:
        return EXIT_OK
    if any(c.measured == "Inconclusive" and not c.passed for c in report.cases):
        return EXIT_INCONCLUSIVE
    return EXIT_ERROR


def run(argv):
    """Entry point used by both the console script and the tests."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        file_cfg = (ExperimentConfig.read(args.config) if args.config
                    else ExperimentConfig())
        return _dispatch(args, file_cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return EXIT_USAGE
    except SystemExit as exc:
        return exc.code
    except (norms.NormError, fn.FunctionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _dispatch(args, file_cfg):
    if args.command == "reproduce":
        seeds = (acceptance.DEFAULT_SEEDS if args.seeds is None
                 else _int_list("--seeds", args.seeds))
        criteria = (None if args.criteria is None
                    else _int_list("--criteria", args.criteria, acceptance.CRITERIA))
        outdir = args.out or "acceptance_out"
        os.makedirs(outdir, exist_ok=True)
        results = acceptance.run_all(seeds=seeds, criteria=criteria)
        by_cid = {}
        for res in results:
            by_cid.setdefault(res.cid, []).append(res)
        all_ok = True
        for cid, group in sorted(by_cid.items()):
            rows = [row for res in group for row in res.rows]
            write_csv(rows, os.path.join(outdir, f"criterion_{cid:02d}.csv"))
            ok = all(res.passed for res in group)
            all_ok = all_ok and ok
            print(f"criterion {cid:2d}: {'PASS' if ok else 'FAIL'} "
                  f"(seeds {', '.join(str(res.seed) for res in group)})")
        print(f"acceptance suite: {'PASS' if all_ok else 'FAIL'}; "
              f"CSV written to {outdir}/")
        return EXIT_OK if all_ok else EXIT_ERROR

    cfg = _quad_config(args, file_cfg)
    seed = cfg.seed

    if args.command == "norm":
        fspec = fn.parse_function(args.f)
        try:
            value = norms.hardy_seminorm(fspec, args.p, cfg=cfg)
        except norms.NotInSpaceError as exc:
            print(f"not in H^p: {exc}")
            return EXIT_ERROR
        print(f"||f||_{args.p:g} (grid sup) = {fmt(value)}")
        if args.out:
            write_csv([{"experiment_id": "norm", "case_label": fn.describe(fspec),
                        "p": args.p, "value": value, "passed": True,
                        "seed": seed}], args.out)
        return EXIT_OK

    if args.command == "scan":
        fspec = fn.parse_function(args.f)
        domain = parse_domain(args.domain)
        if args.surface == "level":
            if args.count is not None and domain.warps:
                raise UsageError(f"--count: a level scan of {domain.describe()} "
                                 f"takes the thin shell, which does not read it")
            grid = _grid("level", args, norms.LEVEL_GRID)
            sc = norms.level_scan_domain(fspec, args.p, domain, grid, cfg)
        else:
            surface = norms.SphereSurface(fn.ambient_dim(fspec))
            grid = _grid("radial", args, norms._default_grid(fspec, surface, cfg))
            sc = norms.scan(fspec, args.p, grid, surface, cfg)
        return _scan_exit(args, sc, seed)

    if args.command == "local":
        fspec = fn.parse_function(args.f)
        center = tuple(complex(c) for c in args.center.split(","))
        try:  # the cap local_scan_ball scans, built here to check it first
            norms.CapSurface(fn.ambient_dim(fspec), center, args.radius)
        except norms.NormError as exc:
            raise UsageError(f"--center/--radius: {exc}") from exc
        sc = norms.local_scan_ball(fspec, args.p, center, args.radius, cfg=cfg,
                                   complement=args.complement)
        return _scan_exit(args, sc, seed)

    if args.command == "levi-check":
        from .geometry import check_levi_estimate, levi_form_min_eigenvalue
        domain = parse_domain(args.domain)
        beta = args.beta
        if beta is None:
            beta = levi_form_min_eigenvalue(domain, seed=seed) / 3.0
        rep = check_levi_estimate(domain, beta, args.eta, count=args.pairs,
                                  seed=seed)
        status = "no violations" if rep.ok else f"{len(rep.violations)} violations"
        print(f"beta={fmt(beta)} eta={fmt(args.eta)} samples={rep.sample_count}: "
              f"{status}, worst margin {fmt(rep.worst_margin)}")
        if args.out:
            write_csv([{"experiment_id": "levi-check", "case_label": status,
                        "value": rep.worst_margin, "passed": rep.ok,
                        "seed": seed}], args.out)
        return EXIT_OK if rep.ok else EXIT_ERROR

    if args.command == "lemma":
        rep = _run_lemma(args, cfg)
        print("\n".join(rep.summary_lines()))
        if args.out:
            write_csv(acceptance._report_rows("lemma", rep, seed), args.out)
        return _report_exit(rep)

    if args.command == "witness":
        fspec = fn.parse_function(args.f)
        singular = fn.singular_points(fspec)
        if singular:
            targets = [np.asarray(s, dtype=complex) for s in singular][:args.targets]
        else:
            from .geometry import boundary_dense_sequence
            domain = parse_domain(f"ball:n={fn.ambient_dim(fspec)}")
            targets = boundary_dense_sequence(domain, args.targets, seed=seed)
        rep = ex.totally_unbounded_witness(fspec, targets, args.bound)
        print("\n".join(rep.summary_lines()))
        if args.out:
            write_csv([{"experiment_id": "witness", "case_label": "success",
                        "value": e.value, "passed": e.success, "seed": seed}
                       for e in rep.entries], args.out)
        return EXIT_OK if rep.passed else EXIT_ERROR

    if args.command == "density-demo":
        try:
            ex.density_metric_spec(args.q, args.delta)
        except norms.NormError as exc:
            raise UsageError(f"--delta: {exc}") from exc
        base = fn.parse_function(args.base)
        res = ex.density_demo(base, q=args.q, delta=args.delta, J=args.j, cfg=cfg)
        reach = ex.witness_reach(fn.ambient_dim(base), args.q, res.coefficient)
        if not reach > ex.WITNESS_BOUND:
            raise UsageError(
                f"--delta, --q: c={res.coefficient:.4g} reaches c(1 - r)^(-n/q) = "
                f"{reach:.4g} at the deepest probe r = 1 - "
                f"{1.0 - ex.PROBE_SCHEDULE[-1]:.3g}, not above the witness "
                f"bound {ex.WITNESS_BOUND:g}")
        print("\n".join(res.summary_lines()))
        if args.out:
            rows = [{"experiment_id": "density-demo", "case_label": "metric",
                     "value": res.metric.value, "stderr": res.metric.uncertainty,
                     "passed": res.metric.value < args.delta, "seed": seed}]
            rows += [{"experiment_id": "density-demo", "case_label": "witness",
                      "value": e.value, "passed": e.success, "seed": seed}
                     for e in res.witnesses.entries]
            write_csv(rows, args.out)
        return EXIT_OK if res.passed else EXIT_ERROR

    if args.command == "metric":
        fspec = fn.parse_function(args.f)
        gspec = fn.parse_function(args.g)
        try:
            mspec = norms.IntersectionMetricSpec(q=args.q, J=args.terms)
        except norms.NormError as exc:
            raise UsageError(f"--terms: {exc}") from exc
        try:
            res = norms.intersection_metric(fspec, gspec, mspec, cfg=cfg)
        except norms.NotInSpaceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        print(f"d(f, g) = {fmt(res.value)} (+- {fmt(res.uncertainty)})")
        if args.out:
            write_csv([{"experiment_id": "metric", "case_label": f"p={p:g}",
                        "p": p, "value": nrm, "verdict": kl, "passed": True,
                        "seed": seed} for p, nrm, kl in res.terms], args.out)
        return EXIT_OK

    raise UsageError(f"unknown command {args.command!r}")


# lemma id -> (its verification in experiments, the lemma flags it reads)
LEMMAS = {"2.2": ("verify_lemma_2_2", ("n", "q")), "2.5": ("verify_local_bound", ("n",)),
          "3.1": ("verify_lemma_3_1", ("lam",)), "4.2": ("verify_lemma_4_2", ("domain",)),
          "4.3": ("verify_lemma_4_3", ("domain", "q")), "5.1": ("verify_lemma_5_1", ("n",))}
# lemma id -> its least --n: C^n, n >= 2, for the ball kernels; R^n, n >= 3,
# for the harmonic kernel
MIN_N = {"2.2": 2, "2.5": 2, "5.1": 3}


def _run_lemma(args, cfg):
    """The report of lemma ``--id``.  A lemma flag that the id does not read
    is a usage error; an unset one keeps the verification's default."""
    name, reads = LEMMAS[args.id]
    given = {k: getattr(args, k) for k in ("n", "q", "domain", "lam")
             if getattr(args, k) is not None}
    unread = [f"--{k}" for k in given if k not in reads]
    if unread:
        raise UsageError(f"lemma {args.id} does not read {', '.join(unread)}")
    if "n" in given and given["n"] < MIN_N[args.id]:
        raise UsageError(f"lemma {args.id} needs --n >= {MIN_N[args.id]}")
    if "domain" in given:
        given["domain"] = parse_domain(given["domain"])
        if given["domain"].warps:
            raise UsageError(f"lemma {args.id} --domain "
                             f"{given['domain'].describe()}: its level sets do "
                             f"not scale to a quadric, which the lemma's scans need")
    if "lam" in given:
        given["lam_kind"] = given.pop("lam")
    # looked up at call time, so that a wrapped verification is the one run
    return getattr(ex, name)(cfg=cfg, **given)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
