"""Output checks of one pass against the reference recorded in reference.json.

Per command: the exit code is 0, the CSV has the reference's rows, every
``passed`` cell is true, every verdict string equals the reference, and every
value the reference took from an exact path (``stderr`` = 0) is again exact
and within REL_TOL of the reference.  Monte Carlo values are left to the
program's own pass gates.
"""

import csv
import json
import math
import os

REL_TOL = 1e-9
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def read_rows(path):
    """Data rows of a hardylab CSV (version comment, then header), or None."""
    if not os.path.exists(path):
        return None
    with open(path, newline="") as fh:
        fh.readline()
        return list(csv.DictReader(fh))


def _number(text):
    try:
        return float(text)
    except ValueError:          # "", "overflow"
        return math.nan


def is_exact(row):
    return _number(row["stderr"]) == 0.0


def summarize(rows):
    """The reference form of a command's CSV rows."""
    return [{"verdict": r["verdict"], "value": r["value"], "exact": is_exact(r)}
            for r in rows]


def check_command(rc, rows, reference):
    """(checks attempted, failure messages) for one command's output."""
    attempted = 0
    failures = []

    def check(ok, message):
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(message)

    check(rc == 0, f"exit code {rc}")
    n_rows = "no" if rows is None else len(rows)
    check(rows is not None and len(rows) == len(reference),
          f"{n_rows} CSV rows, reference has {len(reference)}")
    if rows is None or len(rows) != len(reference):
        return attempted, failures
    for i, (row, want) in enumerate(zip(rows, reference)):
        check(row["passed"] == "True", f"row {i}: passed={row['passed']!r}")
        check(row["verdict"] == want["verdict"],
              f"row {i}: verdict {row['verdict']!r}, reference "
              f"{want['verdict']!r}")
        if want["exact"] and want["value"]:
            ok = is_exact(row) and math.isclose(
                _number(row["value"]), float(want["value"]), rel_tol=REL_TOL,
                abs_tol=0.0)
            check(ok, f"row {i}: exact value {row['value']} (stderr "
                      f"{row['stderr']!r}), reference {want['value']}")
    return attempted, failures


def check_pass(pass_dir, commands, reference):
    """Check every command of a pass; ``reference`` is the workload's entry."""
    attempted = 0
    failures = []
    if [c["argv"] for c in commands] != [r["argv"] for r in reference]:
        return 1, ["reference was recorded for other commands; re-record it"]
    for cmd, ref in zip(commands, reference):
        rows = read_rows(os.path.join(pass_dir, cmd["csv"]))
        n, fails = check_command(cmd["rc"], rows, ref["rows"])
        attempted += n
        failures += [f"{' '.join(cmd['argv'])}: {f}" for f in fails]
    return attempted, failures


def load_reference(path=REFERENCE):
    with open(path) as fh:
        return json.load(fh)
