"""Bad input stops the CLI with a message and an exit code, never a
traceback or a silently ignored flag."""

import pytest

from hardylab import cli

BAD_FUNCTIONS = ["power:q=0;zeta=1,0", "cauchy:zeta=2,0", "power:q=-2;zeta=1,0",
                 "harmonic:n=2;y=1,0"]


@pytest.mark.parametrize("text", BAD_FUNCTIONS)
def test_function_spec_outside_its_domain_is_an_error(text, capsys):
    assert cli.run(["scan", "--f", text, "--p", "2"]) == cli.EXIT_ERROR
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
