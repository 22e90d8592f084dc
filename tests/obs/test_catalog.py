"""The event catalog: `KINDS`, the emitting source and the docs agree."""

import pathlib
import re

from repro.obs.trace import KINDS

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: A literal kind handed to the process hub (`_TEL`) or to an injected
#: one (`self._tel`: the SLO engine emits through the hub it was given).
EMIT = re.compile(r'\b(?:_TEL|self\._tel)\.(?:event|span)\(\s*"(\w+)"')


def emitted_kinds():
    return {kind for path in (ROOT / "src").rglob("*.py")
            for kind in EMIT.findall(path.read_text())}


def test_source_emits_exactly_the_catalog():
    assert len(set(KINDS)) == len(KINDS)
    assert emitted_kinds() == set(KINDS)


def test_every_kind_is_documented():
    page = (ROOT / "docs" / "observability.md").read_text()
    assert [kind for kind in KINDS if f"`{kind}`" not in page] == []
