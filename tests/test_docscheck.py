"""Tests for repro.docscheck, the checker that gates README.md + docs/*.md."""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.docscheck import check_file, check_paths, heading_anchor, main


def write(path: pathlib.Path, text: str) -> pathlib.Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


class TestHeadingAnchor:
    def test_basic_slugging(self):
        assert heading_anchor("Running the macro benchmarks") == (
            "running-the-macro-benchmarks"
        )

    def test_punctuation_and_code_stripped(self):
        assert heading_anchor("The `repro run` CLI, explained!") == (
            "the-repro-run-cli-explained"
        )

    def test_emphasis_stripped(self):
        assert heading_anchor("*Why* CSR?") == "why-csr"


class TestLinks:
    def test_clean_file_passes(self, tmp_path):
        target = write(tmp_path / "docs" / "other.md", "# A Heading\n\ntext\n")
        doc = write(
            tmp_path / "docs" / "doc.md",
            "See [other](other.md) and [sec](other.md#a-heading) "
            "and [self](#local)\n\n# Local\n",
        )
        assert check_file(target, tmp_path) == []
        assert check_file(doc, tmp_path) == []

    def test_broken_file_link_reported(self, tmp_path):
        doc = write(tmp_path / "doc.md", "[gone](missing.md)\n")
        problems = check_file(doc, tmp_path)
        assert len(problems) == 1
        assert "missing.md" in problems[0]

    def test_broken_anchor_reported(self, tmp_path):
        write(tmp_path / "other.md", "# Real Heading\n")
        doc = write(tmp_path / "doc.md", "[x](other.md#wrong-heading)\n")
        problems = check_file(doc, tmp_path)
        assert len(problems) == 1
        assert "#wrong-heading" in problems[0]

    def test_external_links_ignored(self, tmp_path):
        doc = write(
            tmp_path / "doc.md",
            "[a](https://example.org/x) [b](mailto:x@example.org)\n",
        )
        assert check_file(doc, tmp_path) == []

    def test_link_escaping_repo_reported(self, tmp_path):
        doc = write(tmp_path / "doc.md", "[up](../../etc/passwd)\n")
        problems = check_file(doc, tmp_path)
        assert len(problems) == 1
        assert "escapes" in problems[0]

    def test_links_inside_fences_ignored(self, tmp_path):
        doc = write(
            tmp_path / "doc.md",
            "```\n[not a link](missing.md)\n```\n",
        )
        assert check_file(doc, tmp_path) == []


class TestFences:
    def test_unclosed_fence_reported(self, tmp_path):
        doc = write(tmp_path / "doc.md", "text\n```python\ncode\n")
        problems = check_file(doc, tmp_path)
        assert len(problems) == 1
        assert "never closed" in problems[0]
        assert ":2:" in problems[0]

    def test_balanced_fences_pass(self, tmp_path):
        doc = write(tmp_path / "doc.md", "```\ncode\n```\n\n```\nmore\n```\n")
        assert check_file(doc, tmp_path) == []


class TestCommands:
    def test_registered_scenario_in_fence_passes(self, tmp_path):
        doc = write(tmp_path / "doc.md", "```bash\nrepro run fig7-smoke\n```\n")
        assert check_file(doc, tmp_path) == []

    def test_unknown_scenario_in_fence_reported(self, tmp_path):
        doc = write(
            tmp_path / "doc.md", "```bash\npython -m repro run no-such-preset\n```\n"
        )
        problems = check_file(doc, tmp_path)
        assert len(problems) == 1
        assert "no-such-preset" in problems[0]

    def test_unknown_sweep_target_reported(self, tmp_path):
        doc = write(tmp_path / "doc.md", "```\nrepro sweep bogus-plan --jobs 2\n```\n")
        problems = check_file(doc, tmp_path)
        assert len(problems) == 1
        assert "bogus-plan" in problems[0]

    def test_sweep_accepts_scenario_names(self, tmp_path):
        doc = write(tmp_path / "doc.md", "```\nrepro sweep fig7-smoke\n```\n")
        assert check_file(doc, tmp_path) == []

    def test_prose_mentions_not_validated(self, tmp_path):
        doc = write(
            tmp_path / "doc.md",
            "After registration, `repro run my-own-scenario` works too.\n",
        )
        assert check_file(doc, tmp_path) == []

    def test_placeholders_and_files_skipped(self, tmp_path):
        doc = write(
            tmp_path / "doc.md",
            "```\nrepro run <scenario>\nrepro run spec.json\nrepro run --help\n```\n",
        )
        assert check_file(doc, tmp_path) == []


class TestApiNames:
    def test_resolving_names_pass(self, tmp_path):
        doc = write(
            tmp_path / "doc.md",
            "`repro.sim` `repro.sim.engine.Simulator.run` "
            "`repro.obs.current_observer()` `repro.trace/v1`\n",
        )
        assert check_file(doc, tmp_path) == []

    def test_removed_names_reported(self, tmp_path):
        doc = write(
            tmp_path / "doc.md",
            "Use `repro.sim.NoSuchSimulator` or `repro.no_such_module.thing()`.\n",
        )
        problems = check_file(doc, tmp_path)
        assert len(problems) == 2
        assert ":1: `repro.sim.NoSuchSimulator`" in problems[0]
        assert "`repro.no_such_module.thing`" in problems[1]

    def test_names_inside_fences_ignored(self, tmp_path):
        doc = write(tmp_path / "doc.md", "```\n`repro.sim.Gone`\n```\n")
        assert check_file(doc, tmp_path) == []


class TestTestReferences:
    def test_existing_paths_and_names_pass(self, tmp_path):
        write(tmp_path / "tests" / "test_x.py", "class TestX:\n    def test_y(self):\n")
        doc = write(
            tmp_path / "README.md",
            "`tests/` `tests/test_x.py` `tests/test_x.py::TestX::test_y`\n",
        )
        assert check_file(doc, tmp_path) == []

    def test_planted_stale_path_reported(self, tmp_path):
        doc = write(
            tmp_path / "docs" / "guide.md", "Pinned by `tests/sweep/test_gone.py`.\n"
        )
        problems = check_file(doc, tmp_path)
        assert len(problems) == 1
        assert ":1: `tests/sweep/test_gone.py`: tests/sweep/test_gone.py does not exist" in (
            problems[0]
        )

    def test_stale_test_name_reported(self, tmp_path):
        write(tmp_path / "tests" / "test_x.py", "def test_kept():\n    pass\n")
        doc = write(tmp_path / "doc.md", "`tests/test_x.py::test_renamed`\n")
        problems = check_file(doc, tmp_path)
        assert len(problems) == 1
        assert "defines no test_renamed" in problems[0]

    def test_references_inside_fences_ignored(self, tmp_path):
        doc = write(tmp_path / "doc.md", "```\n`tests/test_gone.py`\n```\n")
        assert check_file(doc, tmp_path) == []


class TestCheckPathsAndMain:
    def test_missing_input_reported(self, tmp_path):
        problems = check_paths([tmp_path / "nope.md"], tmp_path)
        assert problems == [f"{tmp_path / 'nope.md'}: file does not exist"]

    def test_main_on_repo_docs_is_clean(self, capsys):
        """The committed README + docs must pass their own gate."""
        root = pathlib.Path(__file__).resolve().parents[1]
        paths = [str(root / "README.md")] + sorted(
            str(p) for p in (root / "docs").glob("*.md")
        )
        assert paths, "repository docs not found"
        rc = main(paths)
        out = capsys.readouterr().out
        assert rc == 0, out

    def test_main_exit_code_on_problems(self, tmp_path, capsys):
        doc = write(tmp_path / "bad.md", "[x](gone.md)\n")
        assert main([str(doc)]) == 1

    def test_architecture_names_only_existing_tests(self):
        """The contract-to-test map in docs/architecture.md stays honest."""
        root = pathlib.Path(__file__).resolve().parents[1]
        doc = root / "docs" / "architecture.md"
        assert re.search(r"`tests/", doc.read_text(encoding="utf-8")), (
            "docs/architecture.md names no tests"
        )
        assert check_file(doc, root) == []


@pytest.mark.parametrize(
    "heading,anchor",
    [
        ("Layer map", "layer-map"),
        ("Determinism & bit-identity contracts", "determinism--bit-identity-contracts"),
        ("n = 10^5 in seconds", "n--105-in-seconds"),
    ],
)
def test_anchor_examples(heading, anchor):
    assert heading_anchor(heading) == anchor
