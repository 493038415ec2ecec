import copy

import pytest

import checks
from hardylab import cli


def rows(value="12.5", stderr=0.0, verdict="LogDivergent", passed=True):
    return [{"experiment_id": "scan", "case_label": "point", "p": 2.0,
             "grid_param": 0.75, "value": float(value), "stderr": stderr,
             "verdict": verdict, "rate": 1.0, "r2": 0.99, "passed": passed,
             "seed": 7}]


@pytest.fixture
def reference(tmp_path):
    path = tmp_path / "ref.csv"
    cli.write_csv(rows(), str(path))
    return checks.summarize(checks.read_rows(str(path)))


def check(tmp_path, reference, rc=0, **kw):
    path = tmp_path / "out.csv"
    cli.write_csv(rows(**kw), str(path))
    return checks.check_command(rc, checks.read_rows(str(path)), reference)


def test_reference_marks_exact_rows(reference):
    assert reference == [{"verdict": "LogDivergent", "value": "12.5",
                          "exact": True}]


def test_identical_output_passes(tmp_path, reference):
    attempted, failures = check(tmp_path, reference)
    assert attempted == 5 and failures == []


def test_value_within_tolerance_passes(tmp_path, reference):
    assert check(tmp_path, reference, value=12.5 * (1 + 1e-12))[1] == []


def test_perturbed_exact_value_is_flagged(tmp_path, reference):
    _, failures = check(tmp_path, reference, value=12.5 * (1 + 1e-6))
    assert len(failures) == 1 and "exact value" in failures[0]


def test_exact_value_turned_monte_carlo_is_flagged(tmp_path, reference):
    _, failures = check(tmp_path, reference, stderr=0.1)
    assert len(failures) == 1 and "exact value" in failures[0]


def test_flipped_verdict_is_flagged(tmp_path, reference):
    _, failures = check(tmp_path, reference, verdict="Bounded")
    assert len(failures) == 1 and "verdict" in failures[0]


def test_failed_pass_flag_and_exit_code_are_flagged(tmp_path, reference):
    _, failures = check(tmp_path, reference, rc=2, passed=False)
    assert len(failures) == 2


def test_monte_carlo_values_are_not_compared(tmp_path):
    path = tmp_path / "mc.csv"
    cli.write_csv(rows(stderr=0.3), str(path))
    reference = checks.summarize(checks.read_rows(str(path)))
    assert check(tmp_path, reference, value=99.0, stderr=0.5)[1] == []


def test_missing_csv_and_other_commands_are_flagged(tmp_path, reference):
    attempted, failures = checks.check_command(0, None, reference)
    assert attempted == 2 and len(failures) == 1
    entry = [{"argv": ["scan"], "rows": reference}]
    other = copy.deepcopy(entry)
    other[0]["argv"] = ["local"]
    cmds = [{"argv": ["scan"], "rc": 0, "csv": "absent.csv"}]
    assert checks.check_pass(str(tmp_path), cmds, other)[1]
    assert checks.check_pass(str(tmp_path), cmds, entry)[1]
