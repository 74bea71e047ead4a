"""The README's "Library use" example runs as written and prints what its
comments say: one exact ring element, the value at sigma = +1, and a plane
polynomial."""

import contextlib
import io
import pathlib
import re

from qsphere import EvalContext, SpecMode, root_vector, shapovalov

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_use_block():
    """The one python block of the README's "Library use" section."""
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return block


def test_the_library_use_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_use_block(), str(README), "exec"), {})
    value, product = out.getvalue().splitlines()
    fe2 = root_vector("f_eps", 2, 2)
    assert value == str(shapovalov(fe2, fe2, EvalContext(2, SpecMode.specialized()))[0])
    assert "x[0]" in product
