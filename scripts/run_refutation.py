#!/usr/bin/env python3
"""End-to-end walkthrough: build the model, grade the spreads, refute.

Prints a readable account of the whole pipeline; handy as a demo and as
a quick manual regression check.
"""

from __future__ import annotations

import argparse
import sys

from bstghz.common_cause import classify_determinism
from bstghz.errors import BadFlag
from bstghz.events import consistency_grade, is_spacelike
from bstghz.ghz import (
    THEOREM_CONTEXTS,
    build_concrete_model,
    context_label,
    nspread_name,
    parse_context,
    refute_joint_common_cause,
)
from bstghz.model import check_density, check_infima_suprema, check_prior_choice
from bstghz.quantum import compare_with_stipulation, omega_eigencheck


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--contexts",
        default=",".join(context_label(c) for c in THEOREM_CONTEXTS),
        help="comma separated context labels for the refutation",
    )
    args = parser.parse_args()
    try:
        contexts = [
            parse_context(label) for label in args.contexts.split(",") if label
        ]
        if not contexts:
            raise BadFlag("--contexts needs at least one context")
    except BadFlag as exc:
        print(f"error: BadFlag: {exc}", file=sys.stderr)
        return 2

    model, structure = build_concrete_model()
    print(f"model: {len(model.points)} points, {len(model.histories)} histories")
    for report in (
        check_prior_choice(model),
        check_infima_suprema(model),
        check_density(model),
    ):
        print(f"  {report.check}: {report.status}")

    star = structure.nspreads["Sigma_star_123"]
    print(f"space-like joint arrangement: {is_spacelike(model, star)}")
    for ctx in contexts:
        ns = structure.nspreads[nspread_name(ctx)]
        grade = consistency_grade(model, ns)
        print(
            f"  context {context_label(ctx)}: "
            f"1-consistent={grade.one_consistent} "
            f"inconsistent vectors={len(grade.inconsistent_vectors)}"
        )

    result = refute_joint_common_cause(structure, contexts)
    print(
        f"refutation: {len(result.survivors)} of {result.profile_count} "
        "profiles survive"
    )
    if result.trace:
        for i, step in enumerate(result.trace.steps, start=1):
            print(f"  {i}. [{step.rule} {step.context}] {step.conclusion}")

    level = classify_determinism(
        model, [structure.nspreads[nspread_name(c)] for c in contexts]
    )
    print(
        f"determinism: level={level.level} "
        f"evidence-of-uncaused-correlations={level.level3_evidence}"
    )

    eig = omega_eigencheck()
    values = " ".join(
        f"{spec.label()}={value:+.0f}" for spec, value in eig.operators
    )
    print(f"quantum: {values} product={eig.product_eigenvalue:+.0f}")
    print(
        "rule-vs-state disagreements: "
        f"{len(compare_with_stipulation().disagreements)}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
