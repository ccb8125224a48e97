"""Each qpfs module imports only the modules of the layers below it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qpfs"
# Bottom layer first; the package ``__init__`` is exempt on both sides.
LAYERS = ("errors", "fetch", "ingest", "infotheory", "qp", "baselines",
          "evaluation", "pipeline", "cli")


def qpfs_imports(path: Path) -> set[str]:
    """The qpfs modules ``path`` imports anywhere, function bodies included;
    ``from . import __version__`` reads the exempt package ``__init__``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:             # from .x import y
                found.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "qpfs":  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("qpfs."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("qpfs."))
    return found & set(LAYERS)


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__") == sorted(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_module_imports_only_layers_below_it(module):
    below = set(LAYERS[:LAYERS.index(module)])
    assert qpfs_imports(PACKAGE / f"{module}.py") <= below


def test_imports_inside_functions_are_found(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("def f():\n    from .infotheory import x\n    import qpfs.qp\n"
                      "from . import baselines, __version__\nfrom qpfs import cli\n")
    assert qpfs_imports(source) == {"infotheory", "qp", "baselines", "cli"}
