"""Cross-document link integrity for the docs site.

The guides in ``docs/`` and the top-level documents cross-reference each
other heavily (the index in ``docs/README.md`` is the hub).  These tests
walk every markdown file and assert that every *relative* link resolves
to a real file, so a rename or a typo breaks CI instead of a reader.
"""

from __future__ import annotations

import importlib
import itertools
import re
import shlex
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

# Top-level documents plus everything under docs/.
MARKDOWN_FILES = sorted(
    [p for p in REPO.glob("*.md")] + [p for p in (REPO / "docs").glob("*.md")]
)

# [text](target) — inline links only; reference-style links are unused here.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

GUIDES = (
    "ARCHITECTURE.md",
    "TRACING.md",
    "SANITIZER.md",
    "PROFILING.md",
    "RELIABILITY.md",
    "PERFORMANCE.md",
    "METRICS.md",
    "FLEET.md",
)


def _relative_links(md: Path):
    """Yield (target, anchor-stripped path) for every relative link in *md*."""
    for target in _LINK_RE.findall(md.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target, target.split("#", 1)[0]


def test_markdown_corpus_is_nonempty():
    names = {p.name for p in MARKDOWN_FILES}
    assert "README.md" in names and "EXPERIMENTS.md" in names
    assert (REPO / "docs" / "README.md") in MARKDOWN_FILES


@pytest.mark.parametrize("md", MARKDOWN_FILES, ids=lambda p: str(p.relative_to(REPO)))
def test_relative_links_resolve(md):
    broken = []
    for target, path_part in _relative_links(md):
        if not path_part:  # pure-anchor link, handled by startswith("#") above
            continue
        resolved = (md.parent / path_part).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{md.relative_to(REPO)} has dead links: {broken}"


def test_docs_index_links_every_guide():
    index = (REPO / "docs" / "README.md").read_text(encoding="utf-8")
    linked = {path for _, path in _relative_links(REPO / "docs" / "README.md")}
    for guide in GUIDES:
        assert guide in linked, f"docs/README.md does not link {guide}"
    # ... and each guide file actually exists (belt and braces with the
    # resolution test above, but this one names the missing guide).
    for guide in GUIDES:
        assert (REPO / "docs" / guide).exists(), f"docs/{guide} missing"
    assert "RELIABILITY.md" in index


# a dotted repro.* name inside a `code span` (not a path such as src/repro/...)
_DOTTED = re.compile(r"(?<![\w./])repro(?:\.\w+)+")
_CODE_SPAN = re.compile(r"`([^`\n]+)`")


def _resolve(dotted: str):
    """Import the longest module prefix of *dotted*, then read the rest
    as attributes (``repro.apps.cg.Csr``)."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj


def _documented_names():
    """(where, name) for every backticked dotted ``repro.*`` name in
    README, DESIGN, EXPERIMENTS and docs/*.md, plus the module names of
    DESIGN.md §3's "Modules" column (written without ``repro.``, before
    any parenthesised note)."""
    docs = [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md"]
    for md in docs + sorted((REPO / "docs").glob("*.md")):
        for span in _CODE_SPAN.findall(md.read_text(encoding="utf-8")):
            for name in _DOTTED.findall(span):
                yield md.name, name
    for line in (REPO / "DESIGN.md").read_text(encoding="utf-8").splitlines():
        if line.startswith(("| Fig", "| §")):
            for name in re.findall(r"`([\w.]+)`", line.split("|")[4].split("(")[0]):
                yield "DESIGN.md §3", f"repro.{name}"


def test_documented_module_names_import():
    names = list(_documented_names())
    assert len(names) >= 60
    unresolved = []
    for where, name in names:
        try:
            _resolve(name)
        except (ImportError, AttributeError) as exc:
            unresolved.append(f"{where}: {name} ({exc})")
    assert not unresolved, unresolved


def test_top_level_readme_links_docs_index():
    linked = {path for _, path in _relative_links(REPO / "README.md")}
    assert "docs/README.md" in linked


# --------------------------------------------- test paths named in the docs
#: documents whose backticked ``tests/…py`` / ``benchmarks/…py`` paths must
#: name a file, and a test in it when ``::name`` or ``::prefix_*`` follows
TEST_PATH_DOCS = [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md"] + sorted(
    (REPO / "docs").glob("*.md")
)

#: a code span opening with such a path, then its end, a space (command
#: arguments) or ``::`` and a name, a ``prefix_*`` or a ``{a, b}`` list
_TEST_PATH_RE = re.compile(
    r"`((?:tests|benchmarks)/[\w/.\-]*\.py)(?:::\s*(\{[^}`]*\}|[^\s`]+))?(?=[\s`])"
)


def _cited_tests(md: Path):
    """(path, names) for every test path cited in *md*."""
    for m in _TEST_PATH_RE.finditer(md.read_text(encoding="utf-8")):
        path, spec = m.groups()
        yield path, re.findall(r"[^\s{},]+", spec or "")


@pytest.mark.parametrize("md", TEST_PATH_DOCS, ids=lambda p: str(p.relative_to(REPO)))
def test_cited_test_paths_exist(md):
    import ast

    bad = []
    for path, names in _cited_tests(md):
        if not (REPO / path).is_file():
            bad.append(path)
            continue
        defined = {
            node.name for node in ast.walk(ast.parse((REPO / path).read_text()))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        for name in names:
            if not (name in defined if not name.endswith("*") else
                    any(d.startswith(name[:-1]) for d in defined)):
                bad.append(f"{path}::{name}")
    assert not bad, f"{md.relative_to(REPO)} cites tests that do not exist: {bad}"


def test_cited_test_paths_found():
    cited = [c for md in TEST_PATH_DOCS for c in _cited_tests(md)]
    assert len(cited) >= 80 and sum(bool(names) for _, names in cited) >= 25


# ------------------------------------------------- command lines in the docs
#: documents whose ``python -m repro …`` command lines must parse
COMMAND_DOCS = sorted(
    [REPO / "README.md", REPO / "EXPERIMENTS.md", REPO / ".claude/skills/verify/SKILL.md"]
    + list((REPO / "docs").glob("*.md"))
)

#: an inline code span or a code-block line that runs the door
_SPAN_RE = re.compile(r"`(?:[^`]*?\s)?python\s+-m\s+repro((?:\s[^`]*)?)`")
_BLOCK_RE = re.compile(r"```[^\n]*\n(.*?)```", re.S)
_LINE_RE = re.compile(r"(?:^|\s)python\s+-m\s+repro(\s.*)?$")


def _door_commands(md: Path):
    """The argument lists of every ``python -m repro`` command in *md*:
    inline code spans, and code-block lines (backslash continuations
    joined, comments and shell plumbing cut)."""
    text = md.read_text(encoding="utf-8")
    found = [m.group(1) for m in _SPAN_RE.finditer(_BLOCK_RE.sub("", text))]
    for block in _BLOCK_RE.findall(text):
        for line in block.replace("\\\n", " ").splitlines():
            m = _LINE_RE.search(line.split(" #")[0])
            if m:
                found.append(m.group(1) or "")
    for args in found:
        args = re.split(r"\s(?:\||&&|>|2>)\s?", args)[0]
        yield shlex.split(args)


@pytest.mark.parametrize("md", COMMAND_DOCS, ids=lambda p: str(p.relative_to(REPO)))
def test_documented_commands_parse(md, capsys):
    from repro.__main__ import build_parser

    bad = []
    for argv in _door_commands(md):
        if argv and argv[0].startswith("<"):  # `python -m repro <verb>`: prose
            continue
        try:
            build_parser().parse_args(argv)
        except SystemExit as exc:
            if exc.code:
                bad.append(" ".join(argv))
    capsys.readouterr()
    assert not bad, f"{md.relative_to(REPO)}: commands the door rejects: {bad}"


def test_documented_commands_found():
    commands = [argv for md in COMMAND_DOCS for argv in _door_commands(md)]
    verbs = {argv[0] for argv in commands if argv}
    assert {"trace", "trace-diff", "profile", "sanitize", "chaos", "metrics",
            "perf", "translate"} <= verbs


#: the old per-package entry points (``python -m repro.trace`` ...); the
#: change log keeps them as history
_OLD_DOOR_RE = re.compile(r"python\s+-m\s+repro\.[a-z]")


@pytest.mark.parametrize(
    "path",
    COMMAND_DOCS + [REPO / "ROADMAP.md", REPO / "Makefile",
                    REPO / ".github" / "workflows" / "ci.yml"],
    ids=lambda p: str(p.relative_to(REPO)),
)
def test_no_old_entry_points(path):
    assert not _OLD_DOOR_RE.search(path.read_text(encoding="utf-8"))


# ------------------------------------------------------------ output ledger
def _ledger_rows():
    """The first code span of every row of docs/README.md "Output ledger",
    split into words: ``[verb, option, ...]`` or ``["repro.x.y"]``."""
    text = (REPO / "docs" / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Output ledger\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return [re.match(r"\| `([^`]+)`", line).group(1).split() for line in rows]


def _output_options():
    """The options of ``OPTIONS`` that name a file or stream to write."""
    from repro.__main__ import OPTIONS

    return {
        key for key, kw in OPTIONS.items()
        if kw.get("action") != "store_true"
        and re.search(r"\b(write|output)\b", kw.get("help", ""))
    }


def test_output_ledger_names_every_verb_and_output_option():
    """A new verb or output option needs a ledger row naming its consumer."""
    from repro.__main__ import VERBS

    assert _output_options() == {"-o --out", "--jsonl", "--json", "--chrome"}
    rows = _ledger_rows()
    missing = [verb for verb in VERBS if not any(row[0] == verb for row in rows)]
    for key in _output_options():
        for name, verb in VERBS.items():
            if key in verb.options and not any(
                row[0] == name and set(key.split()) & set(row[1:]) for row in rows
            ):
                missing.append(f"{name} {key}")
    assert not missing, f"outputs without a ledger row: {missing}"


def test_every_ledger_row_names_something_that_exists():
    import importlib

    from repro.__main__ import TAGGED, VERBS

    stale = []
    for row in _ledger_rows():
        if row[0].startswith("repro."):
            module, _, attr = row[0].rpartition(".")
            try:
                found = hasattr(importlib.import_module(module), attr)
            except ImportError:
                found = False
            if not found:
                stale.append(row[0])
            continue
        verb = VERBS.get(row[0])
        flags = {flag for key in verb.options for flag in key.split()} if verb else set()
        flags |= {f.metadata["flag"] for f in TAGGED.values()} if verb and verb.runs else set()
        if verb is None or not set(row[1:]) <= flags:
            stale.append(" ".join(row))
    assert not stale, f"ledger rows naming no verb, option or name: {stale}"


# -- EXPERIMENTS.md's tables against the CSVs the figure benches write --
#: section heading prefix -> the CSV its first table is copied from
_TABLE_CSVS = {
    **{f"## Figure {n} ": f"fig{n}.csv" for n in range(6, 12)},
    "## §5.1 ": "sec5.1.csv",
}


def _first_table(section: str):
    """Header cells and body rows of the first markdown table in *section*."""
    lines = section.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("|"))
    rows = [
        [c.strip() for c in ln.strip("|").split("|")]
        for ln in itertools.takewhile(lambda ln: ln.startswith("|"), lines[start:])
    ]
    return rows[0], rows[2:]


def test_experiments_tables_match_their_csvs():
    """Every cell of the six figure tables and the §5.1 table reads what
    ``benchmarks/results/`` holds, rounded to the digits it prints."""
    import csv

    text = (REPO / "EXPERIMENTS.md").read_text()
    sections = {"## " + s.split("\n", 1)[0]: s for s in text.split("\n## ")[1:]}
    checked = {}
    for prefix, name in _TABLE_CSVS.items():
        [heading] = [h for h in sections if h.startswith(prefix)]
        header, body = _first_table(sections[heading])
        with open(REPO / "benchmarks" / "results" / name, newline="") as f:
            csv_header, *csv_rows = list(csv.reader(f))
        assert header[1:] == csv_header[1:], name
        assert len(body) == len(csv_rows), name
        for row, csv_row in zip(body, csv_rows):
            if name == "sec5.1.csv":
                # rows in the strategy order the CSV's first header names
                label = csv_header[0].split(" / ")[int(csv_row[0])]
                assert row[0].split()[0] == label, (name, row)
            else:
                assert row[0] == csv_row[0], (name, row)
            for cell, value in zip(row[1:], csv_row[1:]):
                digits = len(cell.partition(".")[2])
                assert cell == f"{float(value):.{digits}f}", (name, row[0], cell, value)
        checked[name] = len(body) * len(header[1:])
    figure_cells = sum(n for name, n in checked.items() if name.startswith("fig"))
    assert (figure_cells, checked["sec5.1.csv"]) == (64, 10)


# ------------------------------------------------- section citations
#: files whose section citations (a markdown file name, then a quoted
#: heading) must name a heading of that file; benchmarks/hostbench/ is
#: the benchmark's own tree and cites none
CITING_FILES = sorted(
    p for top in ("src", "tests", "benchmarks", "docs")
    for p in (REPO / top).rglob("*")
    if p.suffix in (".py", ".md") and "hostbench" not in p.relative_to(REPO).parts
) + [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md",
     REPO / ".claude/skills/verify/SKILL.md"]

#: a markdown file name, optionally as a ``[`X.md`](X.md)`` link, then a
#: quoted heading, after comment markers and line breaks are folded away
_CITATION_RE = re.compile(
    r'([\w/.\-]*?\b[A-Z][A-Z_]*\.md)`?(?:\]\([^)\s]*\))?,? \(?"([^"]+)"'
)


def _citations(path: Path):
    """(file name, heading) for every section citation in *path*."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".py":
        text = re.sub(r"(?m)^[ \t]*#:?[ \t]?", " ", text)
    return _CITATION_RE.findall(re.sub(r"\s+", " ", text))


def _headings(md: Path):
    """The ``#``-headings of *md*, outside fenced code blocks."""
    text = _BLOCK_RE.sub("", md.read_text(encoding="utf-8"))
    return {
        line.lstrip("#").strip()
        for line in text.splitlines() if re.match(r"#{1,6} ", line)
    }


def test_section_citations_resolve():
    """A cited section exists, named exactly: ``docs/PERFORMANCE.md
    "Flag ledger"`` from anywhere, ``ARCHITECTURE.md "The probe bus"``
    beside it in docs/."""
    bad, found = [], 0
    for path in CITING_FILES:
        for name, heading in _citations(path):
            target = next(
                (c for c in (path.parent / name, REPO / name, REPO / "docs" / name)
                 if c.is_file()), None,
            )
            found += 1
            if target is None or heading not in _headings(target):
                bad.append(f'{path.relative_to(REPO)}: {name} "{heading}"')
    assert found >= 40
    assert not bad, f"citations of sections that do not exist: {bad}"


# ------------------------------------------------------ line budgets
#: lines per docs/ file: PERFORMANCE.md and the whole of docs/ have fixed
#: ceilings, every other guide the length it was rewritten to
DOC_LINE_CEILINGS = {
    "ARCHITECTURE.md": 206,
    "FLEET.md": 123,
    "METRICS.md": 128,
    "PERFORMANCE.md": 600,
    "PROFILING.md": 118,
    "README.md": 87,
    "RELIABILITY.md": 128,
    "SANITIZER.md": 98,
    "TRACING.md": 149,
}
DOCS_LINE_CEILING = 1600


def test_docs_fit_their_line_budgets():
    lines = {
        md.name: len(md.read_text(encoding="utf-8").splitlines())
        for md in (REPO / "docs").glob("*.md")
    }
    assert set(lines) == set(DOC_LINE_CEILINGS), "a guide without a line budget"
    over = {name: n for name, n in lines.items() if n > DOC_LINE_CEILINGS[name]}
    assert not over, f"over budget: {over} (ceilings {DOC_LINE_CEILINGS})"
    assert sum(lines.values()) <= DOCS_LINE_CEILING


# ------------------------------------------- config and spec attributes
_ATTR_RE = re.compile(r"\b(DsmConfig|RunSpec)\.(\w+)")


def test_documented_config_and_spec_attributes_exist():
    """Every ```DsmConfig.<name>``` / ```RunSpec.<name>``` span in the docs
    names a field or attribute the class has."""
    import dataclasses

    from repro.dsm.config import DsmConfig
    from repro.fleet import RunSpec

    classes = {"DsmConfig": DsmConfig, "RunSpec": RunSpec}
    stale, found = [], 0
    for md in [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md"] + sorted(
        (REPO / "docs").glob("*.md")
    ):
        for span in _CODE_SPAN.findall(md.read_text(encoding="utf-8")):
            for cls, name in _ATTR_RE.findall(span):
                found += 1
                fields = {f.name for f in dataclasses.fields(classes[cls])}
                if name not in fields and not hasattr(classes[cls], name):
                    stale.append(f"{md.name}: {cls}.{name}")
    assert found >= 5
    assert not stale, f"documented attributes that do not exist: {stale}"


# ------------------------------------------------ EXPERIMENTS verdicts
_VERDICT_RE = re.compile(r"\*\*(?:Measured:\s+)?(?:partially\s+)?[Rr]eproduced[^*]*\*\*")
_ASSERTION_RE = re.compile(r"`benchmarks/bench_\w+\.py::test_\w+`")


def test_every_verdict_names_its_assertion():
    """Each verdict paragraph of EXPERIMENTS.md cites the benchmark
    assertion it rests on (``test_cited_test_paths_exist`` checks that
    the function exists)."""
    paragraphs = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8").split("\n\n")
    verdicts = [p for p in paragraphs if _VERDICT_RE.search(p)]
    assert len(verdicts) == 8
    bare = [p.split("\n")[0] for p in verdicts if not _ASSERTION_RE.search(p)]
    assert not bare, f"verdicts that name no assertion: {bare}"
