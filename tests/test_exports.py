import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tensorwave"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_has_a_caller_outside_its_module(name):
    # a name in `__all__` must be used by another module, a demo, the bench
    # or the README; tests import what they check by name without it
    texts = [
        path.read_text()
        for path in [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
                     *(ROOT / "bench").glob("*"), ROOT / "README.md"]
        if path.is_file() and path != PACKAGE / f"{name}.py"
    ]
    module = importlib.import_module(f"tensorwave.{name}")
    unused = [export for export in getattr(module, "__all__", [])
              if not any(re.search(rf"\b{export}\b", text) for text in texts)]
    assert unused == []
