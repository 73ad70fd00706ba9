"""Documentation checks that run in tier-1 (``make docs-check`` runs just these).

Keeps the documentation suite honest as the repo grows:

* every intra-repo link in the tracked markdown files resolves to a real file,
* README.md keeps its required sections (install, quickstart, algorithms, tests),
* docs/ARCHITECTURE.md keeps covering every package under ``src/repro/`` and
  documents the artifact format version the code writes,
* the quickstart code shown in README.md names only real public API,
* every markdown file a Python module names exists (at the root or in docs/).
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = [
    REPO_ROOT / "README.md",
    REPO_ROOT / "docs" / "ARCHITECTURE.md",
    REPO_ROOT / "ROADMAP.md",
]

_LINK_PATTERN = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")

# A markdown file name as code mentions it: ``ROADMAP.md``, ``docs/ARCHITECTURE.md``.
_MD_NAME_PATTERN = re.compile(r"(?<![\w./-])([\w./-]*\w\.md)\b")
CODE_DIRS = ("src", "benchmarks", "tests", "examples")


def intra_repo_links(markdown: str):
    """Yield link targets that point inside the repository."""
    for target in _LINK_PATTERN.findall(markdown):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target.split("#", 1)[0]


class TestLinks:
    @pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
    def test_doc_exists(self, doc):
        assert doc.is_file(), f"missing documentation file {doc.relative_to(REPO_ROOT)}"

    @pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
    def test_intra_repo_links_resolve(self, doc):
        broken = []
        for target in intra_repo_links(doc.read_text(encoding="utf-8")):
            resolved = (doc.parent / target).resolve()
            if not resolved.exists():
                broken.append(target)
        assert not broken, f"broken links in {doc.name}: {broken}"


class TestReadmeSections:
    REQUIRED_SECTIONS = [
        "## Install",
        "## Quickstart",
        "## Algorithms",
        "## Tests and benchmarks",
        "## Documentation",
    ]

    @pytest.fixture(scope="class")
    def readme(self) -> str:
        return (REPO_ROOT / "README.md").read_text(encoding="utf-8")

    @pytest.mark.parametrize("section", REQUIRED_SECTIONS)
    def test_required_section_present(self, readme, section):
        assert section in readme, f"README.md lost its {section!r} section"

    def test_names_the_paper(self, readme):
        assert "PVLDB" in readme and "LCMSR" in readme

    def test_mentions_every_algorithm(self, readme):
        for algorithm in ("app", "tgen", "greedy", "exact"):
            assert f"`{algorithm}`" in readme, f"README algorithm table lost {algorithm!r}"

    def test_quickstart_names_real_api(self, readme):
        # Each name the README imports from repro must actually be exported.
        for match in re.finditer(r"^from repro import (.+)$", readme, re.MULTILINE):
            for name in match.group(1).split(","):
                name = name.strip()
                assert hasattr(repro, name), f"README imports unknown name {name!r}"

    def test_shows_tier1_command(self, readme):
        assert "python -m pytest -x -q" in readme


class TestArchitectureDoc:
    @pytest.fixture(scope="class")
    def architecture(self) -> str:
        return (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")

    def test_covers_every_package(self, architecture):
        packages = sorted(
            p.parent.name
            for p in (REPO_ROOT / "src" / "repro").glob("*/__init__.py")
        )
        missing = [pkg for pkg in packages if f"repro.{pkg}" not in architecture]
        assert not missing, f"docs/ARCHITECTURE.md does not cover packages: {missing}"

    def test_has_data_flow_diagram(self, architecture):
        assert "ProblemInstance" in architecture and "RegionResult" in architecture

    def test_current_format_version_matches_the_code(self, architecture):
        from repro.service.persist import FORMAT_VERSION

        match = re.search(r"Current version:\s*\*\*(\d+)\*\*", architecture)
        assert match, "docs/ARCHITECTURE.md lost its 'Current version: **N**' line"
        assert int(match.group(1)) == FORMAT_VERSION, (
            f"docs/ARCHITECTURE.md documents artifact format {match.group(1)}, "
            f"the code writes {FORMAT_VERSION}"
        )


class TestDocPointers:
    def test_markdown_files_named_in_code_exist(self):
        dangling = []
        for directory in CODE_DIRS:
            for path in sorted((REPO_ROOT / directory).rglob("*.py")):
                text = path.read_text(encoding="utf-8")
                for name in sorted(set(_MD_NAME_PATTERN.findall(text))):
                    if not any(
                        (base / name).is_file()
                        for base in (REPO_ROOT, REPO_ROOT / "docs")
                    ):
                        dangling.append(f"{path.relative_to(REPO_ROOT)}: {name}")
        assert not dangling, f"Python files name missing markdown files: {dangling}"
