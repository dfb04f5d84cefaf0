"""The library builds no dense n x n matrix: its source calls nothing that
densifies a sparse matrix or allocates an identity."""

import re
from pathlib import Path

import gssl

DENSIFYING = re.compile(r"toarray\(|todense\(|np\.eye\(|np\.identity\(")


def test_library_source_has_no_densifying_call():
    found = [f"{path.name}:{lineno}: {line.strip()}"
             for path in sorted(Path(gssl.__file__).parent.glob("*.py"))
             for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if DENSIFYING.search(line)]
    assert not found, "dense n x n construction in the library:\n" + "\n".join(found)
