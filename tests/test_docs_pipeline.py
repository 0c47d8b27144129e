"""The generated-docs pipeline: determinism, drift gates, link checking.

``docs/RESULTS.md`` and ``EXPERIMENTS.md`` are build artifacts of the
committed ``results/`` directory; CI's ``make docs-check`` fails when
they drift.  These tests pin the contract locally:

* regeneration from the committed artefacts is byte-identical to the
  committed documents (the golden-docs guarantee);
* the generators are deterministic — two builds produce equal bytes;
* ``--check`` exits 0 in sync and 1 on drift, without writing;
* every relative Markdown link in README/docs resolves.
"""

import os
import subprocess
import sys

import pytest

from repro.report import (build_experiments_markdown,
                          build_results_markdown, main as report_main)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(REPO_ROOT, "results")


def _read(*parts):
    with open(os.path.join(REPO_ROOT, *parts)) as fh:
        return fh.read()


def test_results_md_matches_committed(monkeypatch):
    # The committed document embeds the relative artefact path in its
    # header (as `make docs` produces it), so regenerate from the root.
    monkeypatch.chdir(REPO_ROOT)
    assert build_results_markdown("results") == _read("docs", "RESULTS.md"), (
        "docs/RESULTS.md drifted from results/ — run `make docs` and "
        "commit the regenerated document")


def test_experiments_md_matches_committed(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert build_experiments_markdown("results") == _read("EXPERIMENTS.md"), (
        "EXPERIMENTS.md drifted from results/ — run `make docs` and "
        "commit the regenerated document")


def test_results_md_generation_is_deterministic():
    assert build_results_markdown(RESULTS) == build_results_markdown(RESULTS)
    assert (build_experiments_markdown(RESULTS)
            == build_experiments_markdown(RESULTS))


def _write_documents(root, tamper=""):
    """Both generated documents under *root*, optionally with RESULTS.md
    tampered; returns their paths."""
    experiments = root / "EXPERIMENTS.md"
    results = root / "docs" / "RESULTS.md"
    results.parent.mkdir()
    experiments.write_text(build_experiments_markdown(RESULTS))
    results.write_text(build_results_markdown(RESULTS) + tamper)
    return experiments, results


def test_check_mode_passes_in_sync_and_writes_nothing(tmp_path):
    paths = _write_documents(tmp_path)
    before = [p.stat().st_mtime_ns for p in paths]
    code = report_main(["--results", RESULTS, "--out", str(tmp_path),
                        "--check"])
    assert code == 0
    assert [p.stat().st_mtime_ns for p in paths] == before


def test_check_mode_fails_on_drift(tmp_path, capsys):
    _, results = _write_documents(tmp_path, tamper="tampered\n")
    code = report_main(["--results", RESULTS, "--out", str(tmp_path),
                        "--check"])
    assert code == 1
    err = capsys.readouterr().err
    assert "RESULTS.md is out of date" in err
    assert "EXPERIMENTS.md" not in err
    assert results.read_text().endswith("tampered\n")  # nothing rewritten


def test_writes_both_documents(tmp_path):
    assert report_main(["--results", RESULTS, "--out", str(tmp_path)]) == 0
    assert ((tmp_path / "EXPERIMENTS.md").read_text()
            == build_experiments_markdown(RESULTS))
    assert ((tmp_path / "docs" / "RESULTS.md").read_text()
            == build_results_markdown(RESULTS))


def test_missing_experiment_renders_placeholder(tmp_path):
    text = build_results_markdown(str(tmp_path))
    assert "not yet run" in text
    # claims degrade to UNKNOWN, never crash, on an empty directory
    assert "UNKNOWN" in text


def test_link_checker_passes_on_repo():
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "tools", "check_links.py"),
         REPO_ROOT],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "all relative links resolve" in proc.stdout


def test_link_checker_catches_dangling_link(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (tmp_path / "README.md").write_text(
        "see [the plan](docs/PLAN.md) and [home](https://example.com)\n")
    (docs / "OK.md").write_text("[back](../README.md)\n")
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "tools", "check_links.py"),
         str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "docs/PLAN.md" in proc.stderr
    assert "example.com" not in proc.stderr  # external links are skipped


@pytest.mark.parametrize("doc", ["RESULTS.md", "OBSERVABILITY.md"])
def test_new_docs_exist_and_are_nonempty(doc):
    text = _read("docs", doc)
    assert len(text) > 1000
