"""Every global name a function of the package reads exists.

A misspelt or unimported name in a branch that no other test reaches only
fails when that branch runs, as a NameError.  Each module's source is
compiled and every code object in it walked with ``dis``: a function's
reads of module globals are LOAD_GLOBAL instructions, and each name must be
an attribute of the imported module or a builtin.  Class bodies and the
module's own top level read through LOAD_NAME and already ran on import.
"""

import builtins
import dis
import importlib
import pkgutil
import types

import pytest

import nilwkb

MODULES = ["nilwkb", *sorted(info.name for info in pkgutil.iter_modules(nilwkb.__path__, "nilwkb."))]


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _missing_globals(module, source):
    """(function, name) for each LOAD_GLOBAL name in source that is neither an attribute of module nor a builtin."""
    return [
        (code.co_qualname, ins.argval)
        for code in _code_objects(compile(source, module.__name__, "exec"))
        for ins in dis.get_instructions(code)
        if ins.opname == "LOAD_GLOBAL" and not hasattr(module, ins.argval) and not hasattr(builtins, ins.argval)
    ]


def test_the_package_has_modules():
    assert {"nilwkb", "nilwkb.cli", "nilwkb.holonomy"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_global_a_function_reads_exists(name):
    module = importlib.import_module(name)
    with open(module.__file__) as fh:
        assert _missing_globals(module, fh.read()) == []


def test_a_missing_global_is_found():
    source = "import cmath\n\nclass C:\n    x = cmath.pi\n\n    def f(self):\n        return cmath.inf + len([]) + math.inf\n"
    module = types.ModuleType("probe")
    exec(source, module.__dict__)
    assert _missing_globals(module, source) == [("C.f", "math")]
