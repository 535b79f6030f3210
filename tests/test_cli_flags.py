"""The CLI flag tables against the parser, and every numeric flag of every
command driven with out-of-range and malformed values."""
import argparse
import contextlib
import io
from unittest import mock

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from mfnet import cli, data, gradcheck


def subparsers() -> dict:
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def typed_flags(kind) -> list:
    """(command, dest, option string) of every flag of type `kind`."""
    return [(command, a.dest, a.option_strings[0])
            for command, p in subparsers().items() for a in p._actions if a.type is kind]


NUMERIC_FLAGS = typed_flags(int) + typed_flags(float)
VALUES = ["0", "-1", "nan", "inf", "-inf", "1e308", str(10**20), "x"]


def test_flag_tables_name_flags_of_the_parser():
    # A misspelt entry would drop its check or fail every run of its command.
    counts = {(command, name) for command, bounds in cli.COUNT_BOUNDS.items() for name in bounds}
    assert counts == {(command, dest) for command, dest, _ in typed_flags(int)}
    floats = {dest for _, dest, _ in typed_flags(float)}
    assert set(cli.FINITE_FLAGS + cli.POSITIVE_FLAGS) <= floats


class _WouldRun(Exception):
    """Raised in place of the work of a command whose flags all passed."""


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("flags")


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(flag=st.sampled_from(NUMERIC_FLAGS), value=st.sampled_from(VALUES))
def test_numeric_flag_value_is_one_line_naming_the_flag_or_file(root, flag, value):
    command, dest, option = flag
    missing = root / "missing.json"
    argv = [command]
    for action in subparsers()[command]._actions:
        if action.required:
            argv += [action.option_strings[0],
                     str(root / "out.json" if action.dest == "out" else missing)]
    if command == "gen-data":
        argv += ["--n", "1"]
    argv += [option, value]
    out, err = io.StringIO(), io.StringIO()
    # gen-data and grad-check read no file, so values that pass every check
    # would run them; those draws are skipped.
    with mock.patch.object(data, "save_split", side_effect=_WouldRun), \
            mock.patch.object(gradcheck, "run_grad_check", side_effect=_WouldRun), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except _WouldRun:
            reject()
    err = err.getvalue()
    assert code == 1 and out.getvalue() == "", argv
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), argv
    assert "Traceback" not in err
    assert any(name in err for name in (option, dest, str(missing))), (argv, err)
    assert not (root / "out.json").exists()
