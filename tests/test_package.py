import re
from pathlib import Path

import pfltank

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_imports() -> set[str]:
    """Names the README's ``from pfltank import`` lines import."""
    names = set()
    for match in re.finditer(r"^from pfltank import (\([^)]*\)|.*)$", README, re.MULTILINE):
        names.update(re.findall(r"\w+", match.group(1)))
    return names


def test_package_names_are_the_documented_library():
    for name in pfltank.__all__:
        assert getattr(pfltank, name) is not None
        assert re.search(rf"\b{name}\b", README), name
    imported = _readme_imports()
    assert imported, "the README imports nothing from pfltank"
    assert imported <= set(pfltank.__all__), imported - set(pfltank.__all__)
