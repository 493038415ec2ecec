"""The benchmark's workloads: fixed sequences of hardylab CLI commands.

Each workload is issued by one closed-loop client: the next command starts
only after the previous one has returned.  The benchmark appends
``--seed <program seed> --out <csv>`` to every command, so the seed is the
only input that varies between runs.

Monte Carlo verdicts depend on the seed, so the benchmark seed picks one of
PROGRAM_SEEDS, the acceptance suite's seeds, and reference.json holds the
outputs of every workload on each of them.

``--count`` lowers the MC node budget (default 100000) so that one pass takes
seconds, not minutes; the code paths are the same as with the default.
``lemma --id 4.3`` keeps the default: at 20000 and 30000 nodes its p = 0.8q
case is Inconclusive on some of the acceptance seeds.  The thin-shell budget
of ``lemma --id 3.1 --lam warped`` has no flag and stays at 4M proposals per
level.
"""

PROGRAM_SEEDS = (7, 11, 13)


def program_seed(seed):
    return PROGRAM_SEEDS[seed % len(PROGRAM_SEEDS)]


WORKLOADS = {
    # The paper's kernel-zoo, cap and harmonic thresholds on the deterministic
    # zonal and real-zonal paths; rules come from the zonal cache.
    "ball-zonal": (
        ("lemma", "--id", "2.2"),
        ("lemma", "--id", "2.5"),
        ("lemma", "--id", "5.1", "--n", "3"),
        ("lemma", "--id", "5.1", "--n", "4"),
        ("scan", "--f", "cauchy:zeta=1,0", "--p", "2", "--kmin", "2",
         "--kmax", "29"),
        ("scan", "--f", "power:q=1.5;zeta=1,0", "--p", "1.5", "--kmin", "2",
         "--kmax", "29"),
        ("local", "--f", "cauchy:zeta=1,0", "--p", "2", "--center", "1,0",
         "--radius", "0.5"),
    ),
    # Ellipsoid Levi thresholds, with the bisection, on parametrized ring
    # strata, plus the warped thin-shell containment; bound by rule building.
    "level-sets": (
        ("lemma", "--id", "4.2", "--count", "20000"),
        ("lemma", "--id", "4.3"),
        ("lemma", "--id", "3.1", "--lam", "rescaled", "--count", "20000"),
        ("lemma", "--id", "3.1", "--lam", "warped", "--count", "20000"),
    ),
    # The intersection metric's exponent ladder on its importance-MC path
    # (density-demo) and its zonal path (metric); most integrals repeat a
    # (function, surface, grid point, seed) at another exponent.
    "metric-ladder": (
        ("density-demo", "--count", "10000"),
        ("metric", "--f", "power:q=1.5;zeta=1,0", "--g", "const:1", "--q",
         "1.5", "--terms", "5"),
    ),
}

# Wall-clock gates of acceptance criteria whose runner is the identical CLI
# command: criterion -> (gate in seconds, commands whose times add up).
GATES = {
    "criterion_01": (60.0, (("lemma", "--id", "2.2"),)),
    "criterion_03": (60.0, (("lemma", "--id", "2.5"),)),
    "criterion_07": (120.0, (("lemma", "--id", "5.1", "--n", "3"),
                             ("lemma", "--id", "5.1", "--n", "4"))),
}

UNCOVERED_GATES = {
    "criterion_05": "300 s gate not covered: its parametrized/thin-shell "
                    "cross-check is in no workload",
    "criterion_09": "180 s gate not covered: metric-ladder runs density-demo "
                    "with --count 10000, not the criterion's 100000 nodes",
}
