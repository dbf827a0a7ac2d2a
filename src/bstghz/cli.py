"""Command line front end.

Exit codes: 0 when every checked property passes (waived checks count as
passing), 1 when a checked property fails, 2 for malformed input or
flags.  Reports are deterministic: identical invocations on identical
files produce identical bytes, in both text and JSON form.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Mapping

from .document import (
    ResolvedModel,
    dump_document,
    load_document,
    resolve_document,
)
from .errors import BadFlag, BstError, UnknownReference
# ``document`` imports ``events`` and ``model``, so these cost nothing more;
# ``common_cause``, ``ghz`` and ``quantum`` load only in the commands that
# use them
from .events import OutcomeVector, validate_spread
from .model import (
    check_density,
    check_infima_suprema,
    check_prior_choice,
    _Record,
)


class Report(_Record):
    __slots__ = ("command", "status", "findings", "payload")

    def __init__(
        self,
        command: str,
        status: str,  # "pass" | "fail"
        findings: tuple[str, ...],
        payload: dict[str, Any] | None = None,
    ) -> None:
        object.__setattr__(self, "command", command)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "findings", findings)
        object.__setattr__(self, "payload", {} if payload is None else payload)


def render(report: Report, fmt: str) -> str:
    if fmt == "json":
        body = {
            "command": report.command,
            "status": report.status,
            "findings": list(report.findings),
            "payload": report.payload,
        }
        return json.dumps(body, indent=2, sort_keys=True) + "\n"
    lines = [f"command: {report.command}", f"status: {report.status}"]
    lines.extend(report.findings)
    return "\n".join(lines) + "\n"


def _load(path: str) -> ResolvedModel:
    return resolve_document(load_document(path))


def cmd_validate(args: argparse.Namespace) -> Report:
    resolved = _load(args.file)
    model = resolved.model
    findings = [
        f"points: {len(model.points)}",
        f"histories: {len(model.histories)}",
    ]
    checks = [
        check_prior_choice(model),
        check_infima_suprema(model),
        check_density(model),
    ]
    failed = False
    payload_checks: dict[str, str] = {}
    for r in checks:
        line = f"{r.check}: {r.status}"
        if r.violations:
            line += f" ({r.violations[0]})"
        findings.append(line)
        payload_checks[r.check] = r.status
        failed = failed or not r.ok
    payload_spreads: dict[str, str] = {}
    for name in sorted(resolved.spreads):
        r = validate_spread(model, resolved.spreads[name])
        verdict = "valid" if r.ok else "invalid"
        findings.append(f"spread {name}: {verdict}")
        for v in r.violations[:4]:
            findings.append(f"  - {v}")
        payload_spreads[name] = verdict
        failed = failed or not r.ok
    return Report(
        command="validate",
        status="fail" if failed else "pass",
        findings=tuple(findings),
        payload={
            "points": len(model.points),
            "histories": len(model.histories),
            "checks": payload_checks,
            "spreads": payload_spreads,
        },
    )


def cmd_histories(args: argparse.Namespace) -> Report:
    model = _load(args.file).model
    members = {h.top: model.names(h.mask) for h in model.histories}
    findings = [f"count: {len(members)}"]
    findings.extend(f"{top}: {' '.join(m)}" for top, m in members.items())
    return Report(
        command="histories",
        status="pass",
        findings=tuple(findings),
        payload={"count": len(members), "histories": members},
    )


def cmd_ghz_build(args: argparse.Namespace) -> Report | str:
    from .ghz import ghz_document

    text = dump_document(ghz_document())
    if args.out is None:
        return text
    Path(args.out).write_text(text, encoding="utf-8")
    return Report(
        command="ghz build",
        status="pass",
        findings=(f"wrote {len(text)} bytes to {args.out}",),
        payload={"bytes": len(text), "path": args.out},
    )


def _parse_contexts(raw: str) -> list[tuple[str, str, str]]:
    from .ghz import parse_context

    labels = [token for token in raw.split(",") if token]
    if not labels:
        raise BadFlag("--contexts needs at least one context")
    return [parse_context(label) for label in labels]


def cmd_ghz_refute(args: argparse.Namespace) -> Report:
    from .ghz import (
        build_abstract_structure,
        context_label,
        refute_joint_common_cause,
    )

    contexts = _parse_contexts(args.contexts)
    result = refute_joint_common_cause(build_abstract_structure(), contexts)
    findings = [
        f"contexts: {','.join(context_label(c) for c in result.contexts)}",
        f"profiles: {result.profile_count}",
        f"survivors: {len(result.survivors)}",
    ]
    if result.witness is not None:
        events = ",".join(result.witness.consistent_events())
        findings.append(f"witness: {events or '(all flags false)'}")
    findings.extend(f"note: {n}" for n in result.notes)
    steps = result.trace.steps if result.trace else ()
    if args.trace:
        findings.extend(
            f"trace {i}: [{s.rule} {s.context}] {s.conclusion}"
            for i, s in enumerate(steps, start=1)
        )
    return Report(
        command="ghz refute",
        status="pass" if not result.survivors else "fail",
        findings=tuple(findings),
        payload={
            "contexts": [context_label(c) for c in result.contexts],
            "profiles": result.profile_count,
            "survivors": len(result.survivors),
            "witness": (
                result.witness.as_dict() if result.witness else None
            ),
            "trace": [s.as_dict() for s in steps],
            "trace_complete": (
                result.trace.complete if result.trace else None
            ),
        },
    )


def _constraint_label(ctx: tuple[str, str, str], target: int) -> str:
    from .ghz import context_label

    return f"{context_label(ctx)}={'+1' if target > 0 else '-1'}"


def cmd_ghz_values(args: argparse.Namespace) -> Report:
    from .ghz import value_assignment_search

    full = value_assignment_search()
    findings = [
        "constraints: "
        + " ".join(_constraint_label(c, t) for c, t in full.constraints),
        f"satisfying: {full.satisfying} of {full.total}",
    ]
    drops: dict[str, int] = {}
    for k, (ctx, target) in enumerate(full.constraints):
        rest = [c for i, c in enumerate(full.constraints) if i != k]
        res = value_assignment_search(rest)
        label = _constraint_label(ctx, target)
        findings.append(
            f"dropping {label}: {res.satisfying} of {res.total}"
        )
        drops[label] = res.satisfying
    return Report(
        command="ghz values",
        status="pass",
        findings=tuple(findings),
        payload={
            "satisfying": full.satisfying,
            "total": full.total,
            "dropping_one": drops,
        },
    )


def cmd_ghz_contextual(args: argparse.Namespace) -> Report:
    from .ghz import contextual_assignment_search, context_label, signs_label

    res = contextual_assignment_search()
    findings = [
        "constraints: "
        + " ".join(_constraint_label(c, t) for c, t in res.constraints),
        f"satisfying: {res.satisfying} of {res.total}",
    ]
    witness_payload = None
    if res.witness is not None:
        parts = [
            f"{context_label(ctx)}:{signs_label(signs)}"
            for (ctx, _), signs in zip(res.constraints, res.witness)
        ]
        findings.append("witness: " + " ".join(parts))
        witness_payload = parts
    return Report(
        command="ghz contextual",
        status="pass",
        findings=tuple(findings),
        payload={
            "satisfying": res.satisfying,
            "total": res.total,
            "witness": witness_payload,
        },
    )


def cmd_ghz_oracle(args: argparse.Namespace) -> Report:
    from .ghz import ALL_CONTEXTS, context_label, parse_context, signs_label
    from .quantum import (
        compare_with_stipulation,
        context_distribution,
        omega_eigencheck,
    )

    single = args.context is not None
    contexts = [parse_context(args.context)] if single else list(ALL_CONTEXTS)
    eig = omega_eigencheck()
    findings = []
    for spec, value in eig.operators:
        findings.append(f"eigenvalue {spec.label()}: {value:+.0f}")
    findings.append(f"eigenvalue product: {eig.product_eigenvalue:+.0f}")
    findings.append(
        "pairwise commuting: " + ("yes" if eig.pairwise_commuting else "no")
    )
    report = compare_with_stipulation()
    probabilities: dict[str, float] = {}
    for ctx in contexts:
        if single:
            for signs, exact in sorted(context_distribution(ctx).items()):
                label = f"{context_label(ctx)}:{signs_label(signs)}"
                p = float(exact)
                findings.append(f"p({label}) = {p:.6f}")
                probabilities[label] = p
        findings.append(
            f"context {context_label(ctx)}: "
            f"disagreements {report.count_for(ctx)}"
        )
    return Report(
        command="ghz oracle",
        status="pass",
        findings=tuple(findings),
        payload={
            "eigenvalues": {
                spec.label(): float(value) for spec, value in eig.operators
            },
            "product": float(eig.product_eigenvalue),
            "commuting": eig.pairwise_commuting,
            # kept for the report's bytes; the exact oracle has no threshold
            "threshold": 1e-09,
            "probabilities": probabilities,
            "disagreements": {
                context_label(c): report.count_for(c) for c in contexts
            },
        },
    )


def _lookup(mapping: Mapping[str, Any], name: str, kind: str) -> Any:
    if name not in mapping:
        raise UnknownReference(f"document declares no {kind} named {name!r}")
    return mapping[name]


def cmd_check_cc(args: argparse.Namespace) -> Report:
    from .common_cause import (
        _require_cc_preconditions,
        _search_every_vector,
        check_common_cause,
    )

    resolved = _load(args.file)
    model = resolved.model
    if args.search:
        ns_names = [n for n in (args.nspread or "").split(",") if n]
        if not ns_names:
            raise BadFlag("--search needs --nspread with one or more names")
        ns_list = []
        for name in ns_names:
            ns = _lookup(resolved.nspreads, name, "nspread")
            _require_cc_preconditions(model, ns)
            ns_list.append(ns)
        targets, result = _search_every_vector(model, ns_list)
        findings = [
            f"nspreads: {','.join(ns_names)}",
            f"target vectors: {targets}",
            f"candidates: {result.candidates_considered}",
            f"passing: {len(result.passing)}",
        ]
        findings.extend(
            f"passing spread at: {s.initial.name}" for s in result.passing
        )
        findings.extend(f"note: {n}" for n in result.notes)
        return Report(
            command="check-cc",
            status="pass",
            findings=tuple(findings),
            payload={
                "candidates": result.candidates_considered,
                "passing": [s.initial.name for s in result.passing],
                "target_vectors": targets,
                "vacuous": result.vacuous,
            },
        )

    if args.spread is None or args.nspread is None or args.vector is None:
        raise BadFlag("check-cc needs --spread, --nspread and --vector")
    sigma = _lookup(resolved.spreads, args.spread, "spread")
    ns = _lookup(resolved.nspreads, args.nspread, "nspread")
    term_names = [n for n in args.vector.split(",") if n]
    terms = tuple(_lookup(resolved.events, n, "event") for n in term_names)
    report = check_common_cause(model, sigma, ns, OutcomeVector(terms=terms))
    findings = [f"vector: {','.join(report.vector)}"]
    for label, cond in (
        ("cc1 causal priority", report.cc1),
        ("cc2 consistency with initials", report.cc2),
        ("cc3 screening", report.cc3),
    ):
        findings.append(f"{label}: {'pass' if cond.passed else 'fail'}")
        for w in cond.witnesses[:6]:
            findings.append(f"  - {w}")
    findings.append(f"verdict: {'pass' if report.passed else 'fail'}")
    return Report(
        command="check-cc",
        status="pass" if report.passed else "fail",
        findings=tuple(findings),
        payload={
            "vector": list(report.vector),
            "cc1": report.cc1.passed,
            "cc2": report.cc2.passed,
            "cc3": report.cc3.passed,
            "witnesses": {
                "cc1": list(report.cc1.witnesses),
                "cc2": list(report.cc2.witnesses),
                "cc3": list(report.cc3.witnesses),
            },
        },
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bstghz",
        description=(
            "finite branching space-time models, spread consistency, and "
            "the GHZ no-common-cause refutation"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run postulate and spread checks")
    p.add_argument("file")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("histories", help="list the histories of a model")
    p.add_argument("file")
    p.set_defaults(handler=cmd_histories)

    ghz = sub.add_parser("ghz", help="the three-station scenario")
    ghz_sub = ghz.add_subparsers(dest="ghz_command", required=True)

    p = ghz_sub.add_parser("build", help="emit the concrete model document")
    p.add_argument("--out", default=None, help="write to a file instead")
    p.set_defaults(handler=cmd_ghz_build)

    p = ghz_sub.add_parser(
        "refute", help="exhaust candidate common-cause profiles"
    )
    p.add_argument(
        "--contexts", required=True, help="comma separated, e.g. xxx,xxy"
    )
    p.add_argument(
        "--trace", action="store_true", help="include the reductio trace"
    )
    p.set_defaults(handler=cmd_ghz_refute)

    p = ghz_sub.add_parser(
        "values", help="search global sign assignments"
    )
    p.set_defaults(handler=cmd_ghz_values)

    p = ghz_sub.add_parser(
        "contextual", help="search per-context sign assignments"
    )
    p.set_defaults(handler=cmd_ghz_contextual)

    p = ghz_sub.add_parser(
        "oracle", help="eigenvalues, probabilities, rule comparison"
    )
    p.add_argument("--context", default=None, help="one context, e.g. xxy")
    p.set_defaults(handler=cmd_ghz_oracle)

    p = sub.add_parser(
        "check-cc", help="test the common-cause conditions"
    )
    p.add_argument("file")
    p.add_argument("--spread", default=None)
    p.add_argument("--nspread", default=None)
    p.add_argument("--vector", default=None, help="comma separated outcomes")
    p.add_argument("--search", action="store_true")
    p.set_defaults(handler=cmd_check_cc)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        result = args.handler(args)
    except (BstError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if isinstance(result, str):
        sys.stdout.write(result)
        return 0
    sys.stdout.write(render(result, args.format))
    return 0 if result.status == "pass" else 1


if __name__ == "__main__":
    raise SystemExit(main())
