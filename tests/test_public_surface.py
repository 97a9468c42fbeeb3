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
    "szego_image": "items 9 and 28: thm4_2 and thm4_1 take a measure input",
    "VerblunskyParams.rho_window": "item 15: a benchmark PR deletes it",
}


#: classes that exported functions return, so a caller of the function
#: uses the class though it never names it
RETURNED = {"DiscreteMeasure", "EquilibriumMeasure"}


def _used_names_by_module():
    """Every name loaded, read as an attribute or imported, for each
    module of src/opspectra (outside __init__) and of demos/."""
    paths = [p for p in (ROOT / "src" / "opspectra").glob("*.py")
             if p.name != "__init__.py"]
    paths += (ROOT / "demos").glob("*.py")
    used = {}
    for path in paths:
        names = used[path.stem if path.parent.name == "opspectra"
                     else f"demos.{path.stem}"] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return used


def _used_names():
    return set().union(*_used_names_by_module().values())


def test_every_export_has_a_caller_or_waits_for_one():
    # a module's own use of a name it defines does not count as a caller
    by_module = _used_names_by_module()

    def used_outside(name):
        home = getattr(opspectra, name).__module__.rsplit(".", 1)[-1]
        return any(name in names for module, names in by_module.items()
                   if module != home)

    unused = {name for name in opspectra.__all__
              if name not in RETURNED and not used_outside(name)}
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
