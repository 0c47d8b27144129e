"""Tests for the claims-certification module."""

import json
import os

import pytest

from repro.harness.claims import CLAIMS, Claim, check_claims, render_claims
from repro.harness.cli import main as cli_main
from repro.harness.io import load_rows

REPO_RESULTS = os.path.join(os.path.dirname(__file__), "..", "results")


def write_rows(tmp_path, exp_id, rows, title="t"):
    exp_dir = tmp_path / exp_id
    exp_dir.mkdir(parents=True, exist_ok=True)
    with open(exp_dir / "rows.json", "w") as fh:
        json.dump({"exp_id": exp_id.upper(), "title": title,
                   "rows": rows}, fh)


class TestClaimChecks:
    def test_unknown_when_nothing_run(self, tmp_path):
        claims = check_claims(str(tmp_path))
        assert all(c.verdict == "UNKNOWN" for c in claims)
        assert len(claims) == len(CLAIMS)

    def test_c1_holds_on_small_slopes(self, tmp_path):
        write_rows(tmp_path, "f1", [
            {"algorithm": "exact_count_ours", "exponent_b": 0.1},
            {"algorithm": "approx_count_ours", "exponent_b": 0.2},
        ])
        c1 = CLAIMS["C1"](str(tmp_path))
        assert c1.verdict == "HOLDS"

    def test_c1_fails_on_linear_slope(self, tmp_path):
        write_rows(tmp_path, "f1", [
            {"algorithm": "exact_count_ours", "exponent_b": 1.1},
            {"algorithm": "approx_count_ours", "exponent_b": 0.2},
        ])
        assert CLAIMS["C1"](str(tmp_path)).verdict == "FAILS"

    def test_c5_detects_bound_violation(self, tmp_path):
        write_rows(tmp_path, "f3", [
            {"algorithm": "exact_count_ours", "d": 5, "rounds": 100},
        ])
        claim = CLAIMS["C5"](str(tmp_path))
        assert claim.verdict == "FAILS"
        assert "violations" in claim.evidence

    def test_c7_reports_incorrect_cells(self, tmp_path):
        write_rows(tmp_path, "t2", [
            {"adversary": "fresh", "problem": "max_ours", "correct": True},
            {"adversary": "line", "problem": "count_ours", "correct": False},
        ])
        claim = CLAIMS["C7"](str(tmp_path))
        assert claim.verdict == "FAILS"
        assert "line" in claim.evidence

    def test_c9_requires_flat_sketch_and_growing_exact(self, tmp_path):
        write_rows(tmp_path, "f6", [
            {"algorithm": "approx_count_ours", "n": 32,
             "max_message_bits": 100},
            {"algorithm": "approx_count_ours", "n": 64,
             "max_message_bits": 100},
            {"algorithm": "exact_count_ours", "n": 32,
             "max_message_bits": 500},
            {"algorithm": "exact_count_ours", "n": 64,
             "max_message_bits": 1000},
        ])
        assert CLAIMS["C9"](str(tmp_path)).verdict == "HOLDS"


class TestRendering:
    def test_render_table_includes_verdicts(self):
        claims = [Claim("C1", "s", "HOLDS", "e"),
                  Claim("C2", "t", "FAILS", "f")]
        text = render_claims(claims)
        assert "HOLDS" in text and "FAILS" in text


class TestCliIntegration:
    def test_claims_flag_unknown_results_exits_zero(self, tmp_path, capsys):
        code = cli_main(["--claims", "--out", str(tmp_path)])
        assert code == 0  # UNKNOWN is not failure
        assert "UNKNOWN" in capsys.readouterr().out

    def test_claims_flag_failure_exits_one(self, tmp_path, capsys):
        write_rows(tmp_path, "f1", [
            {"algorithm": "exact_count_ours", "exponent_b": 1.5},
            {"algorithm": "approx_count_ours", "exponent_b": 1.5},
        ])
        code = cli_main(["--claims", "--out", str(tmp_path)])
        assert code == 1

    def test_claims_against_repo_results_if_present(self, capsys):
        """When the repo's results/ exists (``repro-experiments --all`` has
        run), all claims must certify."""
        if not os.path.exists("results/f1/rows.json"):
            pytest.skip("full results not generated in this checkout")
        code = cli_main(["--claims", "--out", "results"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "FAILS" not in out


def committed_rows(exp_id):
    """Rows of the committed ``results/<exp_id>``, or skip when absent."""
    if not os.path.exists(os.path.join(REPO_RESULTS, exp_id, "rows.json")):
        pytest.skip(f"results/{exp_id} not generated in this checkout")
    return load_rows(REPO_RESULTS, exp_id)


class TestCommittedShapes:
    """Shape properties of the committed F5 and X2 rows that no claim in
    ``repro.harness.claims`` checks."""

    def test_f5_flooding_crossover_within_simulated_range(self):
        by_baseline = {r["baseline"]: r for r in committed_rows("f5")}
        crossover = by_baseline["flooding_knownN"]["crossover_N_predicted"]
        assert crossover is not None and crossover <= 1024

    def test_x2_stabilizing_core_correct_at_every_loss_rate(self):
        assert all(r["stabilizing_correct"] for r in committed_rows("x2"))

    def test_x2_stabilizing_rounds_grow_with_loss(self):
        rows = sorted(committed_rows("x2"), key=lambda r: r["loss_rate"])
        rounds = [r["stabilizing_rounds"] for r in rows]
        assert rounds == sorted(rounds)

    def test_x2_known_bound_breaks_under_heavy_loss(self):
        heavy = [r for r in committed_rows("x2") if r["loss_rate"] >= 0.6]
        assert any(not r["known_bound_2d_correct"] for r in heavy)
