"""Command line behavior: output shape, determinism, exit codes."""

import codecs
import json
from pathlib import Path

import pytest

from bstghz.cli import main
from bstghz.common_cause import toy_decay_document
from bstghz.document import dump_document
from bstghz.ghz import ghz_document


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")
    toy = root / "toy.json"
    toy.write_text(dump_document(toy_decay_document()), encoding="utf-8")
    ghz = root / "ghz.json"
    ghz.write_text(dump_document(ghz_document()), encoding="utf-8")
    twin = root / "twin.json"
    twin.write_text(
        json.dumps(
            {
                "version": 1,
                "points": ["a", "b"],
                "order": [],
                "events": {},
                "spreads": {},
                "nspreads": {},
            }
        ),
        encoding="utf-8",
    )
    # a < a1 < b1: N's two spreads lie on one chain, not space-like
    chain = root / "chain.json"
    chain.write_text(
        json.dumps(
            {
                "version": 1,
                "points": ["a", "a1", "b1"],
                "order": [["a", "a1"], ["a1", "b1"]],
                "events": {"a": ["a"], "a1": ["a1"], "b1": ["b1"]},
                "spreads": {
                    "A": {"initial": "a", "outcomes": ["a1"]},
                    "B": {"initial": "a1", "outcomes": ["b1"]},
                },
                "nspreads": {"N": ["A", "B"]},
            }
        ),
        encoding="utf-8",
    )
    bad = root / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    return {
        "toy": str(toy),
        "ghz": str(ghz),
        "twin": str(twin),
        "chain": str(chain),
        "bad": str(bad),
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_toy_passes(self, docs, capsys):
        code, out, err = run(capsys, "validate", docs["toy"])
        assert code == 0 and err == ""
        assert "command: validate" in out
        assert "status: pass" in out
        assert "points: 11" in out
        assert "histories: 2" in out
        assert "prior-choice: pass" in out
        assert "density: waived" in out
        assert "spread sigma_d: valid" in out

    def test_disjoint_histories_fail(self, docs, capsys):
        code, out, _ = run(capsys, "validate", docs["twin"])
        assert code == 1
        assert "status: fail" in out
        assert "prior-choice: fail" in out

    def test_json_format_and_determinism(self, docs, capsys):
        code, out1, _ = run(
            capsys, "--format", "json", "validate", docs["toy"]
        )
        assert code == 0
        code, out2, _ = run(
            capsys, "--format", "json", "validate", docs["toy"]
        )
        assert out1 == out2
        body = json.loads(out1)
        assert body["status"] == "pass"
        assert body["payload"]["checks"]["density"] == "waived"
        assert body["payload"]["spreads"]["sigma_a"] == "valid"
        assert out1.endswith("\n")

    def test_a_file_with_a_byte_order_mark_validates_alike(
        self, tmp_path, capsys
    ):
        fixture = Path(__file__).parents[1] / "fixtures" / "toy_decay.json"
        path = tmp_path / "bom.json"
        path.write_bytes(codecs.BOM_UTF8 + fixture.read_bytes())
        assert run(capsys, "validate", str(path)) == run(
            capsys, "validate", str(fixture)
        )

    def test_ghz_document_validates(self, docs, capsys):
        code, out, _ = run(capsys, "validate", docs["ghz"])
        assert code == 0
        assert "points: 53" in out
        assert "histories: 32" in out

    def test_malformed_file_is_a_usage_error(self, docs, capsys):
        code, out, err = run(capsys, "validate", docs["bad"])
        assert code == 2
        assert out == ""
        assert "error: ParseError" in err

    def test_nesting_past_the_decoder_is_a_usage_error(
        self, tmp_path, capsys
    ):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 1000, encoding="utf-8")
        code, out, err = run(capsys, "validate", str(deep))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ParseError: not valid JSON:")

    def test_missing_file_is_a_usage_error(self, docs, capsys):
        code, _, err = run(capsys, "validate", docs["toy"] + ".nope")
        assert code == 2
        assert "error:" in err


class TestHistories:
    def test_listing(self, docs, capsys):
        code, out, _ = run(capsys, "histories", docs["toy"])
        assert code == 0
        assert "count: 2" in out
        assert "m1: a a+ b b- d d+ m1" in out
        assert "m2: a a- b b+ d d- m2" in out


class TestGhzBuild:
    def test_stdout_emits_the_document(self, capsys):
        code, out, _ = run(capsys, "ghz", "build")
        assert code == 0
        assert out == dump_document(ghz_document())

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "model.json"
        code, out, _ = run(capsys, "ghz", "build", "--out", str(target))
        assert code == 0
        assert "wrote" in out
        assert target.read_text(encoding="utf-8") == dump_document(
            ghz_document()
        )

    def test_build_then_validate_round_trip(self, tmp_path, capsys):
        target = tmp_path / "model.json"
        assert main(["ghz", "build", "--out", str(target)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "validate", str(target))
        assert code == 0
        assert "status: pass" in out


class TestGhzRefute:
    def test_theorem_family_with_trace(self, capsys):
        code, out, _ = run(
            capsys,
            "ghz", "refute", "--contexts", "xxx,xxy,xyy,xyx", "--trace",
        )
        assert code == 0
        assert "profiles: 4096" in out
        assert "survivors: 0" in out
        assert "trace 1: [cc2-existence xxx]" in out
        assert "trace 6: [contradiction xyy]" in out

    def test_product_constraint_family(self, capsys):
        code, out, _ = run(
            capsys,
            "ghz", "refute", "--contexts", "xyy,yxy,yyx,xxx", "--trace",
        )
        assert code == 0
        assert "survivors: 0" in out
        assert "trace: unavailable" not in out
        assert (
            "trace 2: [case-split yxy] suppose the candidate outcome is "
            "inconsistent with y-1"
        ) in out.splitlines()
        assert "trace 14: [contradiction yyx]" in out

    def test_single_context_fails_with_witness(self, capsys):
        code, out, _ = run(capsys, "ghz", "refute", "--contexts", "xxx")
        assert code == 1
        assert "survivors: 256" in out
        assert "witness: x+1,x+2,x-3" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys,
            "--format", "json",
            "ghz", "refute", "--contexts", "xxx,xxy,xyy,xyx", "--trace",
        )
        assert code == 0
        body = json.loads(out)
        assert body["payload"]["survivors"] == 0
        assert body["payload"]["trace_complete"] is True
        assert len(body["payload"]["trace"]) == 6

    def test_bad_context_label(self, capsys):
        code, _, err = run(capsys, "ghz", "refute", "--contexts", "xxz")
        assert code == 2
        assert "error: BadFlag" in err

    def test_empty_context_list(self, capsys):
        code, _, err = run(capsys, "ghz", "refute", "--contexts", ",")
        assert code == 2
        assert "error: BadFlag" in err


class TestGhzSearches:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "ghz", "values")
        assert code == 0
        assert "satisfying: 0 of 64" in out
        for label in ("xyy=+1", "yxy=+1", "yyx=+1", "xxx=-1"):
            assert f"dropping {label}: 8 of 64" in out

    def test_contextual(self, capsys):
        code, out, _ = run(capsys, "ghz", "contextual")
        assert code == 0
        assert "satisfying: 256 of 4096" in out
        assert "witness: xyy:--+ yxy:--+ yyx:--+ xxx:---" in out


class TestGhzOracle:
    def test_summary(self, capsys):
        code, out, _ = run(capsys, "ghz", "oracle")
        assert code == 0
        assert "eigenvalue xyy: +1" in out
        assert "eigenvalue xxx: -1" in out
        assert "eigenvalue product: -1" in out
        assert "pairwise commuting: yes" in out
        assert "context xxx: disagreements 0" in out
        assert "context xxy: disagreements 4" in out
        assert "p(" not in out

    def test_single_context_lists_probabilities(self, capsys):
        code, out, _ = run(capsys, "ghz", "oracle", "--context", "xxy")
        assert code == 0
        assert "p(xxy:---) = 0.125000" in out
        assert "p(xxy:+++) = 0.125000" in out
        assert "context xxy: disagreements 4" in out
        assert "context xxx:" not in out

    def test_json_is_deterministic(self, capsys):
        code, out1, _ = run(capsys, "--format", "json", "ghz", "oracle")
        assert code == 0
        _, out2, _ = run(capsys, "--format", "json", "ghz", "oracle")
        assert out1 == out2

    @pytest.mark.parametrize(
        "context, probabilities",
        [
            ("xyx", {"xyx:+++": 0.125, "xyx:---": 0.125}),
            (
                "xyy",
                {"xyy:+++": 0.25, "xyy:-++": 0.0, "xyy:--+": 0.25},
            ),
        ],
    )
    def test_json_values_are_exact(self, capsys, context, probabilities):
        code, out, _ = run(
            capsys, "--format", "json", "ghz", "oracle", "--context", context
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["eigenvalues"] == {
            "xyy": 1.0, "yxy": 1.0, "yyx": 1.0, "xxx": -1.0,
        }
        assert payload["product"] == -1.0
        assert len(payload["probabilities"]) == 8
        for label, p in probabilities.items():
            assert payload["probabilities"][label] == p
        assert set(payload["probabilities"].values()) <= {0.0, 0.125, 0.25}
        assert '"product": -1.0,' in out
        assert "0.12499" not in out and "0.24999" not in out

    @pytest.mark.parametrize("label", ["qqq", ""])
    def test_bad_context(self, capsys, label):
        code, out, err = run(capsys, "ghz", "oracle", "--context", label)
        assert (code, out) == (2, "")
        assert err == (
            f"error: BadFlag: not an axis context: {label!r} "
            "(want e.g. 'xxy')\n"
        )

    def test_bad_context_is_rejected_before_the_oracle_runs(
        self, capsys, monkeypatch
    ):
        def refuse():
            raise AssertionError("the oracle ran before --context was parsed")

        monkeypatch.setattr("bstghz.quantum.omega_eigencheck", refuse)
        code, out, err = run(capsys, "ghz", "oracle", "--context", "qqq")
        assert (code, out) == (2, "")
        assert err.startswith("error: BadFlag: not an axis context: 'qqq'")


class TestCheckCc:
    def test_decay_spread_passes(self, docs, capsys):
        code, out, _ = run(
            capsys,
            "check-cc", docs["toy"],
            "--spread", "sigma_d",
            "--nspread", "Sigma_ab",
            "--vector", "a-,b-",
        )
        assert code == 0
        assert "cc1 causal priority: pass" in out
        assert "cc2 consistency with initials: pass" in out
        assert "cc3 screening: pass" in out
        assert "  - d- is inconsistent with b-" in out
        assert "verdict: pass" in out

    def test_station_spread_fails(self, docs, capsys):
        code, out, _ = run(
            capsys,
            "check-cc", docs["toy"],
            "--spread", "sigma_a",
            "--nspread", "Sigma_ab",
            "--vector", "a-,b-",
        )
        assert code == 1
        assert "cc1 causal priority: fail" in out
        assert "verdict: fail" in out

    def test_consistent_vector_is_an_input_error(self, docs, capsys):
        code, _, err = run(
            capsys,
            "check-cc", docs["toy"],
            "--spread", "sigma_d",
            "--nspread", "Sigma_ab",
            "--vector", "a-,b+",
        )
        assert code == 2
        assert "error: NotInconsistencyType" in err

    def test_unknown_name_is_an_input_error(self, docs, capsys):
        code, _, err = run(
            capsys,
            "check-cc", docs["toy"],
            "--spread", "nope",
            "--nspread", "Sigma_ab",
            "--vector", "a-,b-",
        )
        assert code == 2
        assert "error: UnknownReference" in err

    def test_missing_flags_are_an_input_error(self, docs, capsys):
        code, _, err = run(capsys, "check-cc", docs["toy"])
        assert code == 2
        assert "error: BadFlag" in err

    def test_search_mode(self, docs, capsys):
        code, out, _ = run(
            capsys,
            "check-cc", docs["toy"], "--search", "--nspread", "Sigma_ab",
        )
        assert code == 0
        assert "target vectors: 2" in out
        assert "candidates: 7" in out
        assert "passing: 1" in out
        assert "passing spread at: d" in out

    def test_search_on_ghz_finds_nothing(self, docs, capsys):
        code, out, _ = run(
            capsys,
            "check-cc", docs["ghz"], "--search", "--nspread", "Sigma_xxy",
        )
        assert code == 0
        assert "target vectors: 4" in out
        assert "candidates: 21" in out
        assert "passing: 0" in out

    def test_search_at_width_40_lists_no_vector(
        self, tmp_path, capsys, scale_grade
    ):
        # 2^40 - 3 inconsistent vectors: a search that listed them would
        # not finish
        doc = tmp_path / "width40.json"
        doc.write_text(
            dump_document(scale_grade.width_document(40)), encoding="utf-8"
        )
        code, out, _ = run(
            capsys, "check-cc", str(doc), "--search", "--nspread", "Sigma"
        )
        assert code == 0
        lines = out.splitlines()
        assert "target vectors: 1099511627773" in lines
        assert "passing: 0" in lines

    def test_search_checks_an_nspread_without_inconsistent_vectors(
        self, docs, capsys
    ):
        code, out, err = run(
            capsys, "check-cc", docs["chain"], "--search", "--nspread", "N"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: PreconditionFailed: the n-spread is not space-like\n"
        )

    def test_search_needs_nspread(self, docs, capsys):
        code, _, err = run(capsys, "check-cc", docs["toy"], "--search")
        assert code == 2
        assert "error: BadFlag" in err

    @pytest.mark.parametrize("names", [",", ""])
    def test_search_rejects_an_empty_nspread_list(self, docs, capsys, names):
        code, out, err = run(
            capsys, "check-cc", docs["toy"], "--search", "--nspread", names
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: BadFlag: --search needs --nspread with one or more names\n"
        )


class TestParsing:
    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "validate" in out
