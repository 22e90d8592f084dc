"""The docs cite only what exists.

Every documentation page is read against the tree, by file reads and
the AST alone (nothing is imported):

* a backticked ``repro.<module>[.<name>[.<attr>]]`` resolves;
* a backticked ``CamelCaseName[.attr]`` that is not a builtin is a class
  (or a type alias) defined in ``src/``, ``tests/`` or ``benchmarks/``,
  and has that attribute.  Third-party names are written qualified,
  e.g. ``numpy.random.SeedSequence``;
* a backticked repo path exists.  A token with a ``/`` counts as a path
  when it has a file extension, ends in ``/`` or starts at a top-level
  entry; a bare file name when it is a ``.py`` or ``.md`` file.  In a
  command, only the tokens with a ``/`` are read;
* every relative link that stays inside the repo exists;
* every ``*.md`` path a ``.py`` file under ``src/``, ``tests/`` or
  ``benchmarks/`` names exists;
* a section cited as ``<page>.md, "<heading>"`` (or ``<page>.md
  ("<heading>")``), in a doc or in code, is a heading of that page.

Documentation is every markdown file below the top level plus the
top-level README and experiment guide; the other top-level files are
records (changelog, roadmap, paper notes), and ``benchmarks/e2e/`` is
frozen with the benchmark, so both stay out.  Fenced code blocks are
not read.
"""

from __future__ import annotations

import ast
import builtins
import os
import re
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
CODE_DIRS = ("src", "tests", "benchmarks")
#: Top-level markdown that is documentation, not a record.
TOP_LEVEL_DOCS = ("README.md", "EXPERIMENTS.md")
FROZEN = ROOT / "benchmarks" / "e2e"
#: Where a relative path in a doc may be anchored, besides the doc's
#: own directory: the root, and the package for module paths such as
#: ``core/eventsim.py``.
ANCHORS = (ROOT, ROOT / "src", ROOT / "src" / "repro")
EXTENSIONS = {"py", "md", "json", "jsonl", "toml", "yml", "yaml", "txt",
              "csv", "cfg", "ini", "sh"}

_FENCE = re.compile(r"^[ \t]*(```|~~~).*?^[ \t]*\1", re.M | re.S)
#: An inline code span: it may wrap a line, not a paragraph.
_SPAN = re.compile(r"`((?:[^`\n]|\n(?![ \t]*\n))+)`")
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_DOTTED = re.compile(r"^(repro(?:\.\w+)+)(?:\(.*\))?$")
_CLASS = re.compile(r"^([A-Z]\w*)((?:\.\w+)*)(?:\(.*\))?$")
_MD_IN_PY = re.compile(r"[\w./-]*\w\.md\b")
_SECTION = re.compile(r"([\w./-]*\w\.md)`*(?:,\s*|\s+\()\"([^\"]+)\"")
_HEADING = re.compile(r"^#{1,6}\s+(.+?)\s*$", re.M)


def _walk(top: Path) -> Iterator[Path]:
    """Files under `top`, skipping caches and hidden directories other
    than ``.claude`` and ``.github``."""
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(
            d for d in dirnames if d != "__pycache__"
            and (not d.startswith(".") or d in (".claude", ".github")))
        for name in sorted(filenames):
            yield Path(dirpath) / name


@lru_cache(maxsize=None)
def _docs() -> Tuple[Path, ...]:
    return tuple([ROOT / name for name in TOP_LEVEL_DOCS] + [
        p for p in _walk(ROOT)
        if p.suffix == ".md" and p.parent != ROOT
        and FROZEN not in p.parents])


def _code_files() -> Iterator[Path]:
    for top in CODE_DIRS:
        yield from (p for p in _walk(ROOT / top) if p.suffix == ".py")


# ------------------------------------------------------------ code index
def _top_level_names(body: List[ast.stmt]) -> Set[str]:
    """Names a module body binds, through ``if`` / ``try`` blocks."""
    names: Set[str] = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                names.update(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, (ast.If, ast.Try)):
            for block in ([node.body, node.orelse]
                          + ([h.body for h in node.handlers]
                             + [node.finalbody]
                             if isinstance(node, ast.Try) else [])):
                names |= _top_level_names(block)
    return names


def _class_attrs(node: ast.ClassDef) -> Set[str]:
    """What a class body defines, plus every ``self.<attr>`` its
    methods assign and the entries of its ``__slots__``."""
    attrs = _top_level_names(node.body)
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in (sub.targets if isinstance(sub, ast.Assign)
                           else [sub.target]):
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in ("self", "cls")):
                    attrs.add(target.attr)
                if (isinstance(target, ast.Name)
                        and target.id == "__slots__"):
                    attrs.update(c.value for c in ast.walk(sub.value)
                                 if isinstance(c, ast.Constant)
                                 and isinstance(c.value, str))
    return attrs


@lru_cache(maxsize=None)
def _index() -> Tuple[Dict[str, Set[str]], Dict[str, Set[str]],
                      Dict[str, List[str]], Set[str]]:
    """``(modules, classes, bases, aliases)``: the top-level names of
    every ``repro`` module; the attributes and base names of every
    class in the code directories (merged over classes that share a
    name); and the module-level CamelCase assignments (type aliases)."""
    modules: Dict[str, Set[str]] = {}
    classes: Dict[str, Set[str]] = {}
    bases: Dict[str, List[str]] = {}
    aliases: Set[str] = set()
    src = ROOT / "src"
    for path in _code_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _top_level_names(tree.body)
        if src in path.parents:
            parts = path.relative_to(src).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            modules[".".join(parts)] = names
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, set()).update(
                    _class_attrs(node))
                bases.setdefault(node.name, []).extend(
                    b.id if isinstance(b, ast.Name) else
                    b.attr if isinstance(b, ast.Attribute) else ""
                    for b in node.bases)
        aliases |= {t.id for node in tree.body
                    if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for t in ast.walk(node.targets[0] if isinstance(
                        node, ast.Assign) else node.target)
                    if isinstance(t, ast.Name) and t.id[:1].isupper()}
    return modules, classes, bases, aliases


def _has_attr(cls: str, attr: str, seen: Set[str] = frozenset()) -> bool:
    """`attr` is defined by `cls` or a base it inherits.  A base the
    code directories do not define (``Enum``, ``NamedTuple``, a numpy
    or stdlib class) may define anything."""
    __, classes, bases, __ = _index()
    if attr in classes[cls]:
        return True
    for base in bases[cls]:
        if base not in classes:
            if base not in ("", "object"):
                return True
        elif base not in seen and _has_attr(base, attr, seen | {cls}):
            return True
    return False


def _resolves(dotted: str) -> bool:
    modules, classes, __, __ = _index()
    parts = dotted.split(".")
    for k in range(len(parts), 0, -1):
        module = ".".join(parts[:k])
        if module in modules:
            break
    else:
        return False
    rest = parts[k:]
    if not rest:
        return True
    if rest[0] not in modules[module] or len(rest) > 2:
        return False
    return len(rest) == 1 or (rest[0] in classes
                              and _has_attr(rest[0], rest[1]))


def _path_exists(token: str, doc: Path) -> bool:
    token = re.sub(r"(::.*|:\d+)$", "", token.rstrip(".,;:)"))
    if "/" not in token:
        return token in _basenames()
    return any((base / token).exists() for base in (doc.parent,) + ANCHORS)


@lru_cache(maxsize=None)
def _basenames() -> Set[str]:
    return {p.name for p in _walk(ROOT)}


def _is_path(token: str) -> bool:
    if re.search(r"[*<>{}$~\[]|://|\.\.\.|^/", token):
        return False
    ext = re.search(r"\.(\w+)(?:::\S*|:\d+)?[.,;:)]?$", token)
    if "/" not in token:
        return ext is not None and ext.group(1) in ("py", "md")
    return ((ext is not None and ext.group(1) in EXTENSIONS)
            or token.endswith("/") or (ROOT / token.split("/")[0]).exists())


# ------------------------------------------------------------------ rules
def _span_problems(span: str, doc: Path) -> List[str]:
    __, classes, __, aliases = _index()
    m = _DOTTED.match(span)
    if m:
        return [] if _resolves(m.group(1)) else [f"`{span}` does not resolve"]
    m = _CLASS.match(span)
    if (m and not span.endswith(tuple("." + e for e in EXTENSIONS))
            and any(c.islower() for c in m.group(1))
            and not hasattr(builtins, m.group(1))):
        name, attrs = m.group(1), m.group(2).split(".")[1:]
        if name in classes:
            if attrs and not _has_attr(name, attrs[0]):
                return [f"`{span}`: {name} has no attribute {attrs[0]}"]
            return []
        if name in aliases and not attrs:
            return []
        return [f"`{span}`: no class {name} in {', '.join(CODE_DIRS)}"]
    tokens = span.split()
    if len(tokens) > 1:
        # A command: its bare file names may be outputs; check what
        # names a directory.
        tokens = [t for t in tokens if "/" in t and not t.startswith("-")
                  and "=" not in t]
    return [f"`{span}`: no such path {t}" for t in tokens
            if _is_path(t) and not _path_exists(t, doc)]


def doc_problems(doc: Path) -> List[str]:
    text = _FENCE.sub("", doc.read_text(encoding="utf-8"))
    problems: List[str] = []
    for span in _SPAN.findall(text):
        problems += _span_problems(" ".join(span.split()), doc)
    for target in _LINK.findall(text):
        if re.match(r"[a-z]+:|#", target):
            continue
        path = (doc.parent / target.split("#")[0]).resolve()
        if ROOT in path.parents and not path.exists():
            problems.append(f"link to missing {target}")
    return problems


@lru_cache(maxsize=None)
def _headings(page: Path) -> Set[str]:
    return {" ".join(h.split()) for h in _HEADING.findall(
        _FENCE.sub("", page.read_text(encoding="utf-8")))}


def section_problems(path: Path) -> List[str]:
    """Cited sections of `path` that are no heading of their page.  Line
    breaks and comment markers inside a citation are read as spaces."""
    text = path.read_text(encoding="utf-8")
    if ".md" not in text:
        return []
    problems = []
    for name, section in _SECTION.findall(
            re.sub(r"\s*\n\s*#*:?\s*", " ", text)):
        pages = ([p for p in _docs() if p.name == name] if "/" not in name
                 else [base / name for base in (ROOT, path.parent)
                       if (base / name).exists()])
        headings = set().union(*map(_headings, pages))
        if pages and section not in headings:
            problems.append(f'{name}, "{section}" is no heading')
    return problems


@pytest.mark.parametrize(
    "doc", _docs(), ids=lambda p: p.relative_to(ROOT).as_posix())
def test_doc_cites_only_what_exists(doc):
    assert doc_problems(doc) + section_problems(doc) == []


def test_code_names_only_markdown_that_exists():
    """A path resolves from the root or the file's directory; a bare
    name (a path joined in code) names some page of the repo."""
    missing = []
    for path in _code_files():
        if FROZEN in path.parents:
            continue
        for name in set(_MD_IN_PY.findall(path.read_text(encoding="utf-8"))):
            if not (name in _basenames() if "/" not in name else any(
                    (base / name).exists() for base in (ROOT, path.parent))):
                missing.append(f"{path.relative_to(ROOT)}: {name}")
        missing += [f"{path.relative_to(ROOT)}: {problem}"
                    for problem in section_problems(path)]
    assert missing == []
