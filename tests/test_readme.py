"""The README's library example runs as written, on the names the package
exports."""
from __future__ import annotations

import contextlib
import io
import pathlib
import re

import covertrace

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    """The first Python block under "Library in one minute" executes, its
    asserts included, and prints the trace it builds."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library in one minute"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().startswith("{'duration': [3, 2]")


def test_star_import_binds_every_exported_name():
    """`from covertrace import *` binds each name in `__all__`; it raises
    AttributeError on a name the package no longer defines."""
    namespace = {}
    exec("from covertrace import *", namespace)
    assert set(covertrace.__all__) <= namespace.keys()
