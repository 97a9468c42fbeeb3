"""opspectra exports what its scenarios, its command line and its demos
run, and nothing else."""

import ast
import inspect
import pathlib

import opspectra

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: exported names and public methods of exported classes that no program
#: runs yet, each with the ROADMAP item that settles it
WAITING = {
    "cn_sq_stat_oprl": "item 17: thm1_1 reports the mean-square average",
    "lemma21_stats": "item 17: thm1_1 reports the Lemma 2.1 functionals",
    "verblunsky_from_measure": "item 9: thm4_2 takes a measure input",
    "VerblunskyParams.rho_window": "item 15: a benchmark PR deletes it",
}


def _used_names():
    """Every name loaded, read as an attribute or imported in
    src/opspectra (outside __init__) and in demos/."""
    paths = [p for p in (ROOT / "src" / "opspectra").glob("*.py")
             if p.name != "__init__.py"]
    paths += (ROOT / "demos").glob("*.py")
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_every_export_has_a_caller_or_waits_for_one():
    unused = set(opspectra.__all__) - _used_names()
    assert unused == {n for n in WAITING if "." not in n}


def _public_methods(cls):
    """The public methods, class methods and properties a class defines."""
    return [attr for attr, value in vars(cls).items()
            if not attr.startswith("_")
            and (inspect.isfunction(value)
                 or isinstance(value, (staticmethod, classmethod, property)))]


def test_every_public_method_of_an_export_has_a_caller_or_waits_for_one():
    used = _used_names()
    classes = [getattr(opspectra, name) for name in opspectra.__all__]
    unused = {f"{cls.__name__}.{attr}" for cls in classes
              if inspect.isclass(cls)
              for attr in _public_methods(cls) if attr not in used}
    assert unused == {n for n in WAITING if "." in n}
