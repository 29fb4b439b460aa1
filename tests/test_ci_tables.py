"""The tables of blas_threads.py and console_checks.py are well formed; neither is run here."""

import ast
import shlex

import pytest

import blas_threads
import console_checks
from geodetect.cli import load_config

SCRIPTS = (blas_threads, console_checks)


def snippets():
    for row in blas_threads.ROWS:
        if not row.configs:
            yield row.name, row.run
    for row in console_checks.ROWS:
        argv = shlex.split(row.command)
        if argv[0] == "python":
            yield row.command, argv[argv.index("-c") + 1]


def configs_expected_to_run():
    """Every config text of a row that must exit 0."""
    for row in blas_threads.ROWS:
        yield from row.configs
        yield from row.points
    yield from (row.config for row in console_checks.ROWS
                if row.code == 0 and row.config is not None)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda s: s.__name__)
def test_scripts_parse_as_python_3_10(script):
    with open(script.__file__) as fh:
        ast.parse(fh.read(), feature_version=(3, 10))


def test_every_snippet_compiles():
    found = list(snippets())
    assert found
    for name, code in found:
        compile(code, name, "exec", dont_inherit=True)


def test_every_config_expected_to_run_loads(tmp_path):
    path = tmp_path / "config.ini"
    found = list(configs_expected_to_run())
    assert found
    for text in found:
        path.write_text(text)
        load_config(str(path))


def test_every_expected_count_is_positive():
    counts = [row.count for row in blas_threads.ROWS if row.count is not None]
    assert counts and all(count >= 1 for count in counts)


def test_row_names_are_unique():
    for names in ([r.name for r in blas_threads.ROWS], [r.command for r in console_checks.ROWS]):
        assert len(set(names)) == len(names)


def test_output_checks_and_before_text_have_an_output_path():
    for row in console_checks.ROWS:
        if row.check or row.untouched or row.before is not None:
            assert "--out" in row.command.split(), row.command
