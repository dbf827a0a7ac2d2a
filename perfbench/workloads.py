"""The four workloads: set-up, one operation, and its output check.

A workload cycles through a fixed plan of operations; cycle ``c`` is drawn
from the seed and ``c`` alone, so operation ``i`` is the same whichever
process runs it.  ``run(i)`` makes the calls being timed and ``check(i,
result)`` compares the outcome with values fixed by the paper, the
fixtures and the benchmark's own oracles, raising :class:`Mismatch`.
The in-process workloads import ``bstghz`` in set-up, as a caller would.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from spans import per_op

# Values fixed by the paper and by the package's own tests.  The output
# checks read them from here, so a test can plant a wrong one.
FIXED = {
    "ghz_points": 53,
    "ghz_histories": 32,
    "toy_points": 11,
    "toy_histories": 2,
    "profiles": 4096,
    "refuted_families": 73,
    "global_satisfying": "0 of 64",
    "global_dropping_one": "8 of 64",
    "contextual_satisfying": "256 of 4096",
    "eigenvalues": {"xyy": "+1", "yxy": "+1", "yyx": "+1", "xxx": "-1"},
    "eigenvalue_product": "-1",
    "ghz_candidates": 21,
    "toy_candidates": 7,
    "toy_passing": ["d"],
    "theorem_trace": (
        ("cc2-existence", "xxx", "the candidate outcome is consistent with each of x+1, x-2, x+3"),
        ("cc3-screening", "xxy", "the candidate outcome is inconsistent with y+3"),
        ("cc2-existence", "xxy", "the candidate outcome is consistent with y-3"),
        ("cc3-screening", "xyy", "the candidate outcome is inconsistent with y+2"),
        ("cc3-screening", "xyx", "the candidate outcome is inconsistent with y-2"),
        (
            "contradiction",
            "xyy",
            "the candidate outcome is inconsistent with both y-2 and y+2, "
            "although consistency with y2 requires one of them",
        ),
    ),
}
# Contexts on which the parity stipulation agrees with the quantum state.
QUANTUM_AGREES = {"xxx", "xyy", "yxy", "yyx"}
SPANS_NOTE = re.compile(r"\((\d+) spans\)")


CHILD_TIMEOUT_S = 60
PROBE_REPEATS = 5
ORACLE_PROBE = """\
import itertools, time
from bstghz import quantum
t = time.perf_counter()
quantum.omega_eigencheck()
quantum.compare_with_stipulation()
for ctx in itertools.product("xy", repeat=3):
    quantum.context_distribution(ctx)
print((time.perf_counter() - t) * 1000)
"""
IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$")


class Mismatch(Exception):
    """An operation's output differs from the expected value."""


def expect(actual, expected, what: str) -> None:
    if actual != expected:
        raise Mismatch(f"{what}: got {actual!r}, expected {expected!r}")


class Cycled:
    """A fixed list of operations, drawn once from the seed and run in a
    fresh seeded order each cycle, so every operation repeats.

    A workload is built from the checkout's root, the seed, a tracer and
    the oracle's surviving-profile count per context family.
    """

    name: str
    cycle: int  # len(items)
    in_children = False  # whether the work runs in child processes
    items: list
    tracer: object
    seed: int
    _order_for: int | None = None
    _order: list[int] = []

    def position(self, i: int) -> int:
        c = i // self.cycle
        if self._order_for != c:
            rng = gen.rng_for(self.seed, self.name, "order", c)
            self._order_for, self._order = c, rng.sample(range(self.cycle), self.cycle)
        return self._order[i % self.cycle]

    def run(self, i: int):
        return self._op(self.items[self.position(i)])

    def check(self, i: int, result) -> None:
        self._check(self.items[self.position(i)], result)

    def warm_up(self) -> None:
        self._check(self.warm_item, self._op(self.warm_item))


# -- cli-ghz -----------------------------------------------------------------


class CliGhz(Cycled):
    """Fresh ``python -m bstghz`` processes, one at a time."""

    name = "cli-ghz"
    in_children = True
    # One command per subcommand variant, each run once a cycle; validate,
    # histories and check-cc run on both fixtures.  The seed draws the rest:
    # the formats (half of the commands each), the refuted family, the
    # oracle context and the check-cc vectors, so every seed runs the same
    # commands.  The paper's family is refuted in the warm-up, which is
    # checked too.
    MIX = {
        "validate": ("ghz", "toy"),
        "histories": ("ghz", "toy"),
        "build": ("",),
        "refute": ("random",),
        "values": ("",),
        "contextual": ("",),
        "oracle": ("all", "context"),
        "check-cc": ("toy-one", "toy-search", "ghz-one", "ghz-search"),
    }
    cycle = sum(map(len, MIX.values()))

    def __init__(self, root: Path, seed: int, tracer, survivors: dict[frozenset, int]) -> None:
        self.seed = seed
        self.tracer = tracer
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.cwd = root
        self.ghz = "fixtures/ghz_model.json"
        self.toy = "fixtures/toy_decay.json"
        self.fixture_bytes = (root / self.ghz).read_bytes()
        self.ghz_spreads = sorted(json.loads(self.fixture_bytes)["spreads"])
        self.survivors = survivors
        self.seen: dict[tuple, str] = {}
        rng = gen.rng_for(seed, self.name)
        first = rng.randrange(2)
        variants = [(kind, v) for kind, vs in self.MIX.items() for v in vs]
        self.items = [
            self._draw(rng, kind, v, ("text", "json")[(first + n) % 2])
            for n, (kind, v) in enumerate(variants)
        ]
        self.warm_item = self._draw(rng, "refute", "paper", "text")

    def _draw(self, rng, kind: str, variant: str, fmt: str) -> tuple:
        extra: dict = {"variant": variant}
        if kind in ("validate", "histories"):
            args = [kind, self.toy if variant == "toy" else self.ghz]
        elif kind == "build":
            args = ["ghz", "build"]
        elif kind == "refute":
            fam = gen.THEOREM_FAMILY if variant == "paper" else rng.choice(gen.FAMILIES)
            args = ["ghz", "refute", "--contexts", ",".join(map(gen.label, fam)), "--trace"]
            extra["family"] = fam
        elif kind in ("values", "contextual"):
            args = ["ghz", kind]
        elif kind == "oracle":
            args = ["ghz", "oracle"]
            if variant == "context":
                extra["context"] = gen.label(rng.choice(gen.CONTEXTS))
                args += ["--context", extra["context"]]
        elif variant == "toy-one":
            vec = rng.choice(("a-,b-", "a+,b+"))
            args = [kind, self.toy, "--spread", "sigma_d", "--nspread", "Sigma_ab", "--vector", vec]
        elif variant == "toy-search":
            args = [kind, self.toy, "--search", "--nspread", "Sigma_ab"]
        elif variant == "ghz-one":
            ctx = rng.choice(gen.CONTEXTS)
            vec = rng.choice(gen.context_vectors(ctx, False))
            args = [
                kind, self.ghz, "--spread", rng.choice(self.ghz_spreads),
                "--nspread", f"Sigma_{gen.label(ctx)}", "--vector", ",".join(vec),
            ]
        else:
            ctxs = rng.sample(gen.CONTEXTS, rng.randint(1, 2))
            extra["targets"] = 4 * len(ctxs)
            names = ",".join(f"Sigma_{gen.label(c)}" for c in ctxs)
            args = [kind, self.ghz, "--search", "--nspread", names]
        return kind, ["--format", fmt, *args], extra

    def _op(self, item):
        kind, args, _ = item
        with self.tracer.span("op", kind=kind):
            return self._python("-m", "bstghz", *args)

    def _python(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args],
            cwd=self.cwd,
            env=self.env,
            capture_output=True,
            check=False,
            timeout=CHILD_TIMEOUT_S,
        )

    def _check(self, item: tuple, proc) -> None:
        kind, args, extra = item
        digest = hashlib.sha256(proc.stdout).hexdigest()
        expect(self.seen.setdefault(tuple(args), digest), digest, "stdout of a repeated command")
        expect(proc.stderr, b"", "stderr")
        if kind == "build":
            expect(proc.returncode, 0, "exit code")
            expect(proc.stdout, self.fixture_bytes, "ghz build output")
            return
        # Each _check_<kind> raises on a mismatch and returns whether the
        # command must report a failed property, which exits with 1.
        status, lines = _report(args[1], proc.stdout)
        fails = getattr(self, "_check_" + kind.replace("-", "_"))(lines, extra)
        expect((status, proc.returncode), ("fail", 1) if fails else ("pass", 0), "status and exit code")

    def layer_metrics(self, spans: list[dict]) -> dict[str, float]:
        """Per-subcommand medians, plus the fresh-process floors."""
        by_kind: dict[str, list[float]] = {k: [] for k in self.MIX}
        for s in spans:
            if s["name"] == "op":
                by_kind[s["attrs"]["kind"]].append((s["end"] - s["start"]) * 1000)
        out = {f"cli.{k.replace('-', '_')}_ms": statistics.median(v) for k, v in by_kind.items()}
        return out | self.probes()

    def probes(self) -> dict[str, float]:
        startup, imports, numpy, oracle = [], [], [], []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            self._python("-c", "pass")
            startup.append((time.perf_counter() - t0) * 1000)
            proc = self._python("-X", "importtime", "-c", "import bstghz")
            cumulative = {}
            for line in proc.stderr.decode().splitlines():
                found = IMPORT_LINE.match(line)
                if found:
                    cumulative.setdefault(found.group(2), int(found.group(1)) / 1000)
            imports.append(cumulative["bstghz"])
            numpy.append(cumulative.get("numpy", 0.0))
            oracle.append(float(self._python("-c", ORACLE_PROBE).stdout))
        return {
            "cli.python_startup_ms": statistics.median(startup),
            "cli.import_ms": statistics.median(imports),
            "cli.import_numpy_ms": statistics.median(numpy),
            "cli.import_numpy_share": statistics.median(n / i for n, i in zip(numpy, imports)),
            "quantum.oracle_cold_ms": statistics.median(oracle),
        }

    def _check_validate(self, lines, extra) -> None:
        pre = extra["variant"]
        expect(lines[0], f"points: {FIXED[pre + '_points']}", "points")
        expect(lines[1], f"histories: {FIXED[pre + '_histories']}", "histories")
        expect(lines[2:4], ["prior-choice: pass", "infima-suprema: pass"], "postulates")
        expect(lines[4].startswith("density: waived"), True, "density waived")
        expect(all(ln.endswith(": valid") for ln in lines[5:]), True, "spreads valid")

    def _check_histories(self, lines, extra) -> None:
        pre = extra["variant"]
        expect(lines[0], f"count: {FIXED[pre + '_histories']}", "history count")
        expect(len(lines), FIXED[pre + "_histories"] + 1, "history lines")

    def _check_refute(self, lines, extra) -> bool:
        fam = extra["family"]
        survivors = self.survivors[frozenset(fam)]
        expect(lines[1], f"profiles: {FIXED['profiles']}", "profiles")
        expect(lines[2], f"survivors: {survivors}", "survivors")
        trace = [ln for ln in lines if ln.startswith("trace")]
        if survivors:
            expect(trace, [], "trace of a surviving family")
            return True
        if fam == gen.THEOREM_FAMILY:
            want = [
                f"trace {k}: [{rule} {ctx}] {text}"
                for k, (rule, ctx, text) in enumerate(FIXED["theorem_trace"], start=1)
            ]
            expect(trace, want, "theorem trace")
        else:
            expect(bool(trace), True, "a refuted family reports its trace")
        return False

    def _check_values(self, lines, extra) -> None:
        expect(lines[1], f"satisfying: {FIXED['global_satisfying']}", "global assignments")
        drops = [ln.rsplit(": ", 1)[1] for ln in lines[2:]]
        expect(drops, [FIXED["global_dropping_one"]] * 4, "dropping one constraint")

    def _check_contextual(self, lines, extra) -> None:
        expect(lines[1], f"satisfying: {FIXED['contextual_satisfying']}", "per-context assignments")

    def _check_oracle(self, lines, extra) -> None:
        want = [f"eigenvalue {c}: {v}" for c, v in FIXED["eigenvalues"].items()]
        want += [f"eigenvalue product: {FIXED['eigenvalue_product']}", "pairwise commuting: yes"]
        expect(lines[:6], want, "eigenvalues")
        ctx = extra.get("context")
        contexts = [ctx] if ctx else [gen.label(c) for c in gen.CONTEXTS]
        disagreements = [f"context {c}: disagreements {0 if c in QUANTUM_AGREES else 4}" for c in contexts]
        expect([ln for ln in lines if ln.startswith("context ")], disagreements, "disagreements")
        if ctx:
            probs = {}
            for ln in lines:
                if ln.startswith("p("):
                    signs = ln[len(ctx) + 3 : len(ctx) + 6]
                    probs[tuple(-1 if s == "-" else 1 for s in signs)] = float(ln.split(" = ")[1])
            agrees = ctx in QUANTUM_AGREES
            for signs, p in probs.items():
                if agrees:
                    want_p = 0.25 if gen.parity_consistent(tuple(ctx), signs) else 0.0
                else:
                    want_p = 0.125
                expect(abs(p - want_p) < 1e-6, True, f"p({ctx}:{signs})")
            expect(len(probs), 8, "outcome probabilities")

    def _check_check_cc(self, lines, extra) -> bool:
        variant = extra["variant"]
        if variant == "toy-search":
            expect(lines[2], f"candidates: {FIXED['toy_candidates']}", "toy candidates")
            passing = [ln.rsplit(": ", 1)[1] for ln in lines if ln.startswith("passing spread at")]
            expect(passing, FIXED["toy_passing"], "toy passing candidates")
        elif variant == "ghz-search":
            expect(lines[1], f"target vectors: {extra['targets']}", "target vectors")
            expect(lines[2:4], [f"candidates: {FIXED['ghz_candidates']}", "passing: 0"], "ghz search")
        else:
            verdict = "pass" if variant == "toy-one" else "fail"
            expect(lines[-1], f"verdict: {verdict}", "check-cc verdict")
            if variant == "ghz-one":
                expect(lines[1], "cc1 causal priority: fail", "cc1 on separated stations")
                return True
        return False


def _report(fmt: str, stdout: bytes) -> tuple[str, list[str]]:
    """A CLI report's status and findings, from either format."""
    text = stdout.decode("utf-8")
    if fmt == "json":
        body = json.loads(text)
        return body["status"], list(body["findings"])
    lines = text.splitlines()
    if len(lines) < 2 or not lines[1].startswith("status: "):
        raise Mismatch(f"not a text report: {text[:80]!r}")
    return lines[1][len("status: ") :], lines[2:]


# -- poset-validate ----------------------------------------------------------


class PosetValidate(Cycled):
    """``bstghz validate`` plus grading, in process, on layered documents."""

    name = "poset-validate"
    PER_SHAPE = 4
    cycle = PER_SHAPE * len(gen.POSET_SHAPES)

    def __init__(self, root: Path, seed: int, tracer, survivors: dict[frozenset, int]) -> None:
        import bstghz

        self.b = bstghz
        self.seed = seed
        self.tracer = tracer
        self.items = [
            gen.layered_document(gen.rng_for(seed, self.name, shape, k), shape)
            for shape in gen.POSET_SHAPES
            for k in range(self.PER_SHAPE)
        ]
        self.warm_item = self.items[0]

    def _op(self, item):
        b, span = self.b, self.tracer.span
        text, facts = item
        with span("op", points=facts["points"], histories=facts["histories"], bytes=len(text)) as size:
            with span("document.parse"):
                doc = b.document.parse_document(text)
            with span("document.resolve"):
                resolved = b.resolve_document(doc)
            model = resolved.model
            with span("model.histories"):
                histories = b.compute_histories(model)
            with span("model.prior_choice"):
                prior = b.check_prior_choice(model)
            with span("model.infima_suprema"):
                infsup = b.check_infima_suprema(model)
            with span("model.density"):
                density = b.check_density(model)
            spreads = {}
            for name in sorted(resolved.spreads):
                with span("events.validate_spread"):
                    spreads[name] = b.validate_spread(model, resolved.spreads[name])
            with span("events.grade"):
                grade = b.consistency_grade(model, resolved.nspreads[facts["nspread"]])
            found = SPANS_NOTE.search(" ".join(infsup.notes))
            size["spans"] = int(found.group(1)) if found else 0
        return histories, prior, infsup, density, spreads, grade

    def _check(self, item, result) -> None:
        histories, prior, infsup, density, spreads, grade = result
        facts = item[1]
        expect(len(histories), facts["histories"], "histories (= maximal points)")
        expect(prior.status, "pass", "prior-choice")
        expect(infsup.status, "pass", "infima-suprema")
        expect(density.status, "waived", "density with a nonempty order")
        expect(sorted(spreads), facts["spreads"], "spreads")
        expect([s.status for s in spreads.values()], ["pass"] * len(spreads), "spread validity")
        expect(not grade.maximal or grade.one_consistent, True, "maximal implies 1-consistent")
        expect(not grade.one_consistent or grade.minimal, True, "1-consistent implies minimal")
        expect((grade.minimal, grade.one_consistent), (True, True), "grade of the station n-spread")
        expect(grade.vector_count, facts["vectors"], "outcome vectors")
        expect(len(grade.inconsistent_vectors), facts["inconsistent"], "inconsistent vectors")

    @staticmethod
    def layer_metrics(spans: list[dict]) -> dict[str, float]:
        ops = [s for s in spans if s["name"] == "op"]
        busy = sum(s["end"] - s["start"] for s in ops)
        out = {
            f"{layer}_ms": per_op(spans, layer) * 1000
            for layer in (
                "document.parse",
                "document.resolve",
                "model.histories",
                "model.prior_choice",
                "model.infima_suprema",
                "model.density",
                "events.validate_spread",
            )
        }
        out["model.infima_suprema_share"] = per_op(spans, "model.infima_suprema") * len(ops) / busy
        for attr, metric in (
            ("bytes", "document.bytes"),
            ("points", "model.points"),
            ("histories", "model.histories"),
            ("spans", "model.spans"),
        ):
            out[metric] = statistics.fmean(s["attrs"][attr] for s in ops)
        return out


# -- ghz-refute --------------------------------------------------------------


class GhzRefute(Cycled):
    """All 255 context families through the profile refutation."""

    name = "ghz-refute"
    items = list(gen.FAMILIES)
    cycle = len(items)
    warm_item = gen.THEOREM_FAMILY

    def __init__(self, root: Path, seed: int, tracer, survivors: dict[frozenset, int]) -> None:
        import bstghz

        self.b = bstghz
        self.seed = seed
        self.tracer = tracer
        self.structure = bstghz.build_abstract_structure()
        self.survivors = survivors

    def _op(self, fam):
        refuted = self.survivors[frozenset(fam)] == 0
        with self.tracer.span("op", contexts=len(fam), refuted=refuted) as attrs:
            with self.tracer.span("common_cause.refute"):
                result = self.b.refute_joint_common_cause(self.structure, fam)
            attrs["profiles"] = result.profile_count
            attrs["complete"] = bool(result.trace and result.trace.complete)
        return result

    def _check(self, fam, result) -> None:
        survivors = self.survivors[frozenset(fam)]
        expect(result.profile_count, FIXED["profiles"], "profiles")
        expect(len(result.survivors), survivors, "survivors")
        expect(result.witness is None, survivors == 0, "witness present iff survivors")
        if survivors:
            return
        expect(result.trace is not None, True, "a refuted family has a trace")
        if fam == gen.THEOREM_FAMILY:
            steps = tuple((s.rule, s.context, s.conclusion) for s in result.trace.steps)
            expect((result.trace.complete, steps), (True, FIXED["theorem_trace"]), "theorem trace")

    @staticmethod
    def layer_metrics(spans: list[dict]) -> dict[str, float]:
        ops = [s for s in spans if s["name"] == "op"]
        refuted = [s for s in ops if s["attrs"]["refuted"]]
        out = {}
        for metric, group in (("refuted", refuted), ("surviving", [s for s in ops if not s["attrs"]["refuted"]])):
            ids = {s["op"] for s in group}
            out[f"common_cause.refute_{metric}_ms"] = per_op(spans, "common_cause.refute", ids) * 1000
        out["common_cause.profiles_scanned"] = sum(s["attrs"]["profiles"] for s in ops)
        out["common_cause.refuted_families"] = len(refuted)
        out["common_cause.trace_complete_ratio"] = sum(s["attrs"]["complete"] for s in refuted) / len(refuted)
        return out


# -- ghz-checkcc -------------------------------------------------------------


class GhzCheckcc(Cycled):
    """Grading, common-cause search and checks on the 53-point model."""

    name = "ghz-checkcc"
    # Eight families each of one, two and three contexts; every fourth
    # operation also runs the toy-decay positive control.
    PER_SIZE = 8
    TOY_EVERY = 4
    cycle = 3 * PER_SIZE

    def __init__(self, root: Path, seed: int, tracer, survivors: dict[frozenset, int]) -> None:
        import bstghz

        self.b = bstghz
        self.seed = seed
        self.tracer = tracer
        with tracer.span("ghz.build_concrete"):
            self.model, self.structure = bstghz.build_concrete_model()
        self.toy = bstghz.build_toy_decay()
        sigmas = sorted(self.structure.spreads)
        rng = gen.rng_for(seed, self.name)
        self.items = []
        for n, k in enumerate([1, 2, 3] * self.PER_SIZE):
            fam = tuple(rng.sample(gen.CONTEXTS, k))
            ctx = rng.choice(fam)
            vec = rng.choice(gen.context_vectors(ctx, False))
            toy = n % self.TOY_EVERY == self.TOY_EVERY - 1
            self.items.append((fam, rng.choice(sigmas), ctx, vec, toy))
        ctx = gen.CONTEXTS[0]
        self.warm_item = ((ctx,), sigmas[0], ctx, gen.context_vectors(ctx, False)[0], True)

    def _op(self, item):
        b, span, st = self.b, self.tracer.span, self.structure
        fam, sigma, ctx, vec, with_toy = item
        with span("op", contexts=len(fam)) as attrs:
            grades = []
            ns_list, vectors = [], []
            for c in fam:
                ns = st.nspreads[f"Sigma_{gen.label(c)}"]
                with span("events.grade"):
                    grade = b.consistency_grade(self.model, ns)
                grades.append(grade)
                ns_list += [ns] * len(grade.inconsistent_vectors)
                vectors += grade.inconsistent_vectors
            with span("common_cause.search"):
                search = b.search_common_causes(self.model, ns_list, vectors)
            vector = b.OutcomeVector(terms=tuple(st.events[n] for n in vec))
            ns = st.nspreads[f"Sigma_{gen.label(ctx)}"]
            with span("common_cause.check"):
                report = b.check_common_cause(self.model, st.spreads[sigma], ns, vector)
            attrs["vectors"] = sum(g.vector_count for g in grades)
            attrs["candidates"] = search.candidates_considered
            toy = None
            if with_toy:
                t = self.toy
                with span("common_cause.check"):
                    toy_reports = [
                        b.check_common_cause(t.model, t.decay_spread, t.station_nspread, v)
                        for v in t.inconsistent
                    ]
                with span("common_cause.search"):
                    toy_search = b.search_common_causes(
                        t.model, [t.station_nspread] * len(t.inconsistent), list(t.inconsistent)
                    )
                toy = toy_reports, toy_search
        return grades, search, report, toy

    def _check(self, item, result) -> None:
        grades, search, report, toy = result
        for c, g in zip(item[0], grades):
            what = f"grade of Sigma_{gen.label(c)}"
            expect((g.minimal, g.one_consistent, g.maximal, g.vector_count), (True, True, False, 8), what)
            names = sorted(v.names for v in g.inconsistent_vectors)
            expect(names, sorted(gen.context_vectors(c, False)), what + " inconsistent vectors")
        expect(search.candidates_considered, FIXED["ghz_candidates"], "atomic candidates")
        expect(search.passing, (), "passing candidates on the GHZ model")
        expect((report.passed, report.cc1.passed), (False, False), "check-cc on separated stations")
        if toy is not None:
            toy_reports, toy_search = toy
            expect([r.passed for r in toy_reports], [True, True], "toy decay spread passes")
            expect([s.initial.name for s in toy_search.passing], FIXED["toy_passing"], "toy survivors")

    @staticmethod
    def layer_metrics(spans: list[dict]) -> dict[str, float]:
        ops = [s for s in spans if s["name"] == "op"]
        build = [s["end"] - s["start"] for s in spans if s["name"] == "ghz.build_concrete"]
        return {
            "events.grade_ms": per_op(spans, "events.grade") * 1000,
            "common_cause.search_ms": per_op(spans, "common_cause.search") * 1000,
            "common_cause.check_ms": per_op(spans, "common_cause.check") * 1000,
            "events.vectors_graded": statistics.fmean(s["attrs"]["vectors"] for s in ops),
            "common_cause.candidates": ops[0]["attrs"]["candidates"],
            "ghz.build_concrete_ms": statistics.median(build) * 1000,
        }


WORKLOADS = {w.name: w for w in (CliGhz, PosetValidate, GhzRefute, GhzCheckcc)}
