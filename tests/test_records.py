"""The record contract: every public record type, and ``cli.Report``.

A record compares, hashes and prints by its fields, in declared order,
as a frozen dataclass would: ``==`` holds only between records of one
class with equal fields, the hash is the hash of the field tuple, and
the repr is ``Name(field=value, ...)``.  Copies and pickle round-trips
give an equal record, and no attribute can be assigned or deleted.
``CausalModel`` compares and hashes by identity.  The reprs below were
recorded from the dataclass implementation, so a change to the records
keeps them.

A record's constructor binds its fields as a function with the fields
as parameters would: positionally, by keyword or both, with a trailing
field's default when it is left out.  A missing field, one positional
too many, an unknown keyword and a field given twice raise
``TypeError``.  Only the records in ``OWN_INIT`` write their own
``__init__``.

``facts`` reports rather than asserts, so the same checks run under
``python -O`` in a fresh process.
"""

import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bstghz.cli import Report
from bstghz.common_cause import (
    CommonCauseReport,
    CommonCauseSearch,
    ConditionResult,
    LevelReport,
    ToyDecayScenario,
)
from bstghz.document import ModelDocument, ResolvedModel, SpreadDoc
from bstghz.events import (
    Event,
    EventClassification,
    GradeReport,
    NSpread,
    OutcomeVector,
    Spread,
)
from bstghz.ghz import (
    CandidateProfile,
    ContextualSearchResult,
    GhzVector,
    ReductioTrace,
    RefutationResult,
    TraceStep,
    ValueSearchResult,
)
from bstghz.model import CausalModel, History, ValidationReport, _Record
from bstghz.quantum import (
    Discrepancy,
    DiscrepancyReport,
    EigencheckResult,
    ObservableSpec,
    QubitState,
)

ROOT = Path(__file__).resolve().parent.parent

# records whose hash is computed once, at construction
CACHED_HASH = (Event, Spread, NSpread)

MODEL = dict(
    points=("a", "b"), index={"a": 0, "b": 1}, up=(2, 0), down=(0, 1),
    cover=(2, 0),
)
_model = CausalModel(**MODEL)
_d, _dm, _dp = (
    Event(name=n, members=frozenset({n})) for n in ("d", "d-", "d+")
)
_spread = Spread(initial=_d, outcomes=(_dm, _dp))
_nspread = NSpread(spreads=(_spread,))
_vector = OutcomeVector(terms=(_dm,))
_ghz_vector = GhzVector(context=("x", "y", "y"), signs=(1, -1, 1))
_profile = CandidateProfile(flags=(True,) * 6 + (False,) * 6)
_step = TraceStep(
    rule="cc2-existence", context="xxx", detail="given", conclusion="x+1"
)
_condition = ConditionResult(passed=False, witnesses=("w",))
_spec = ObservableSpec(axes=("x", "y", "y"))
_discrepancy = Discrepancy(
    vector=_ghz_vector, stipulated_consistent=True, probability=Fraction(1, 8)
)

# (record type, constructor arguments in declared order)
CASES = {
    "History": (History, dict(top="b", mask=3)),
    "ValidationReport": (ValidationReport, dict(
        check="density", status="waived", violations=("gap",),
        notes=("finite",),
    )),
    "CausalModel": (CausalModel, MODEL),
    "Event": (Event, dict(name="d", members=frozenset({"d"}))),
    "EventClassification": (EventClassification, dict(
        is_initial=True, is_outcome=True, is_stable=False,
    )),
    "Spread": (Spread, dict(initial=_d, outcomes=(_dm, _dp))),
    "NSpread": (NSpread, dict(spreads=(_spread,))),
    "OutcomeVector": (OutcomeVector, dict(terms=(_dm, _dp))),
    "GradeReport": (GradeReport, dict(
        minimal=True, one_consistent=True, maximal=False, vector_count=2,
        inconsistent_vectors=(_vector,),
    )),
    "SpreadDoc": (SpreadDoc, dict(initial="d", outcomes=("d-", "d+"))),
    "ModelDocument": (ModelDocument, dict(
        points=("a", "b"), order=(("a", "b"),), events={"e": ("a",)},
        spreads={"s": SpreadDoc(initial="e", outcomes=("e",))},
        nspreads={"n": ("s",)}, version=1,
    )),
    "ResolvedModel": (ResolvedModel, dict(
        model=_model, events={"d": _d}, spreads={"s": _spread},
        nspreads={"n": _nspread},
    )),
    "ConditionResult": (ConditionResult, dict(passed=True, witnesses=())),
    "CommonCauseReport": (CommonCauseReport, dict(
        vector=("d-",), cc1=_condition, cc2=_condition, cc3=_condition,
    )),
    "CommonCauseSearch": (CommonCauseSearch, dict(
        candidates_considered=3, passing=(_spread,), vacuous=False,
        notes=("n",),
    )),
    "LevelReport": (LevelReport, dict(
        level="indeterministic", history_count=2, level3_evidence=True,
        notes=("n",),
    )),
    "ToyDecayScenario": (ToyDecayScenario, dict(
        model=_model, events={"d": _d}, decay_spread=_spread,
        station_nspread=_nspread, inconsistent=(_vector,),
    )),
    "GhzVector": (GhzVector, dict(
        context=("x", "y", "y"), signs=(1, -1, 1),
    )),
    "ValueSearchResult": (ValueSearchResult, dict(
        constraints=((("x", "x", "x"), 1),), total=64, satisfying=32,
        witnesses=((1,) * 6,),
    )),
    "ContextualSearchResult": (ContextualSearchResult, dict(
        constraints=((("x", "x", "x"), 1),), total=8, satisfying=4,
        witness=((-1, -1, 1),),
    )),
    "CandidateProfile": (CandidateProfile, dict(flags=(False, True) * 6)),
    "TraceStep": (TraceStep, dict(
        rule="contradiction", context="xyy", detail="both", conclusion="x1",
    )),
    "ReductioTrace": (ReductioTrace, dict(steps=(_step,), complete=True)),
    "RefutationResult": (RefutationResult, dict(
        contexts=(("x", "x", "x"),), profile_count=4096,
        survivors=(_profile,), witness=_profile, trace=None, notes=("n",),
    )),
    "QubitState": (QubitState, dict(
        amplitudes=((1, 0), (0, 0)), sqrt2_power=1,
    )),
    "ObservableSpec": (ObservableSpec, dict(axes=("y", "x", "y"))),
    "EigencheckResult": (EigencheckResult, dict(
        operators=((_spec, -1),), product_eigenvalue=-1,
        pairwise_commuting=True,
    )),
    "Discrepancy": (Discrepancy, dict(
        vector=_ghz_vector, stipulated_consistent=False,
        probability=Fraction(1, 8),
    )),
    "DiscrepancyReport": (DiscrepancyReport, dict(
        disagreements=(_discrepancy,),
    )),
    "Report": (Report, dict(
        command="validate", status="pass", findings=("ok",),
        payload={"k": [1]},
    )),
}

# the value a record takes for each field a call may leave out
DEFAULTS = {
    "ValidationReport": dict(violations=(), notes=()),
    "ModelDocument": dict(version=1),
    "ConditionResult": dict(witnesses=()),
    "CommonCauseSearch": dict(notes=()),
    "LevelReport": dict(notes=()),
    "RefutationResult": dict(notes=()),
    "Report": dict(payload={}),
}

# the records that write their own ``__init__``: they check their fields,
# cache a hash or fill a fresh default, or a benchmarked path builds them
# many times per operation
OWN_INIT = {
    "Event", "Spread", "NSpread", "GhzVector", "CandidateProfile",
    "ObservableSpec", "Report", "OutcomeVector", "ConditionResult",
}

REPRS = {
    "CandidateProfile": (
        "CandidateProfile(flags=(False, True, False, True, False, True, "
        "False, True, False, True, False, True))"
    ),
    "CausalModel": (
        "CausalModel(points=('a', 'b'), index={'a': 0, 'b': 1}, up=(2, 0), "
        "down=(0, 1), cover=(2, 0))"
    ),
    "CommonCauseReport": (
        "CommonCauseReport(vector=('d-',), cc1=ConditionResult(passed=False, "
        "witnesses=('w',)), cc2=ConditionResult(passed=False, "
        "witnesses=('w',)), cc3=ConditionResult(passed=False, "
        "witnesses=('w',)))"
    ),
    "CommonCauseSearch": (
        "CommonCauseSearch(candidates_considered=3, "
        "passing=(Spread(initial=Event(name='d', members=frozenset({'d'})), "
        "outcomes=(Event(name='d-', members=frozenset({'d-'})), "
        "Event(name='d+', members=frozenset({'d+'})))),), vacuous=False, "
        "notes=('n',))"
    ),
    "ConditionResult": "ConditionResult(passed=True, witnesses=())",
    "ContextualSearchResult": (
        "ContextualSearchResult(constraints=((('x', 'x', 'x'), 1),), total=8,"
        " satisfying=4, witness=((-1, -1, 1),))"
    ),
    "Discrepancy": (
        "Discrepancy(vector=GhzVector(context=('x', 'y', 'y'), signs=(1, -1, "
        "1)), stipulated_consistent=False, probability=Fraction(1, 8))"
    ),
    "DiscrepancyReport": (
        "DiscrepancyReport(disagreements=(Discrepancy(vector=GhzVector(contex"
        "t=('x', 'y', 'y'), signs=(1, -1, 1)), stipulated_consistent=True, "
        "probability=Fraction(1, 8)),))"
    ),
    "EigencheckResult": (
        "EigencheckResult(operators=((ObservableSpec(axes=('x', 'y', 'y')), "
        "-1),), product_eigenvalue=-1, pairwise_commuting=True)"
    ),
    "Event": "Event(name='d', members=frozenset({'d'}))",
    "EventClassification": (
        "EventClassification(is_initial=True, is_outcome=True, "
        "is_stable=False)"
    ),
    "GhzVector": "GhzVector(context=('x', 'y', 'y'), signs=(1, -1, 1))",
    "GradeReport": (
        "GradeReport(minimal=True, one_consistent=True, maximal=False, "
        "vector_count=2, "
        "inconsistent_vectors=(OutcomeVector(terms=(Event(name='d-', "
        "members=frozenset({'d-'})),)),))"
    ),
    "History": "History(top='b', mask=3)",
    "LevelReport": (
        "LevelReport(level='indeterministic', history_count=2, "
        "level3_evidence=True, notes=('n',))"
    ),
    "ModelDocument": (
        "ModelDocument(points=('a', 'b'), order=(('a', 'b'),), events={'e': "
        "('a',)}, spreads={'s': SpreadDoc(initial='e', outcomes=('e',))}, "
        "nspreads={'n': ('s',)}, version=1)"
    ),
    "NSpread": (
        "NSpread(spreads=(Spread(initial=Event(name='d', "
        "members=frozenset({'d'})), outcomes=(Event(name='d-', "
        "members=frozenset({'d-'})), Event(name='d+', "
        "members=frozenset({'d+'})))),))"
    ),
    "ObservableSpec": "ObservableSpec(axes=('y', 'x', 'y'))",
    "OutcomeVector": (
        "OutcomeVector(terms=(Event(name='d-', members=frozenset({'d-'})), "
        "Event(name='d+', members=frozenset({'d+'}))))"
    ),
    "QubitState": "QubitState(amplitudes=((1, 0), (0, 0)), sqrt2_power=1)",
    "ReductioTrace": (
        "ReductioTrace(steps=(TraceStep(rule='cc2-existence', context='xxx', "
        "detail='given', conclusion='x+1'),), complete=True)"
    ),
    "RefutationResult": (
        "RefutationResult(contexts=(('x', 'x', 'x'),), profile_count=4096, "
        "survivors=(CandidateProfile(flags=(True, True, True, True, True, "
        "True, False, False, False, False, False, False)),), "
        "witness=CandidateProfile(flags=(True, True, True, True, True, True, "
        "False, False, False, False, False, False)), trace=None, "
        "notes=('n',))"
    ),
    "Report": (
        "Report(command='validate', status='pass', findings=('ok',), "
        "payload={'k': [1]})"
    ),
    "ResolvedModel": (
        "ResolvedModel(model=CausalModel(points=('a', 'b'), index={'a': 0, "
        "'b': 1}, up=(2, 0), down=(0, 1), cover=(2, 0)), events={'d': "
        "Event(name='d', members=frozenset({'d'}))}, spreads={'s': "
        "Spread(initial=Event(name='d', members=frozenset({'d'})), "
        "outcomes=(Event(name='d-', members=frozenset({'d-'})), "
        "Event(name='d+', members=frozenset({'d+'}))))}, nspreads={'n': "
        "NSpread(spreads=(Spread(initial=Event(name='d', "
        "members=frozenset({'d'})), outcomes=(Event(name='d-', "
        "members=frozenset({'d-'})), Event(name='d+', "
        "members=frozenset({'d+'})))),))})"
    ),
    "Spread": (
        "Spread(initial=Event(name='d', members=frozenset({'d'})), "
        "outcomes=(Event(name='d-', members=frozenset({'d-'})), "
        "Event(name='d+', members=frozenset({'d+'}))))"
    ),
    "SpreadDoc": "SpreadDoc(initial='d', outcomes=('d-', 'd+'))",
    "ToyDecayScenario": (
        "ToyDecayScenario(model=CausalModel(points=('a', 'b'), index={'a': 0,"
        " 'b': 1}, up=(2, 0), down=(0, 1), cover=(2, 0)), events={'d': "
        "Event(name='d', members=frozenset({'d'}))}, "
        "decay_spread=Spread(initial=Event(name='d', "
        "members=frozenset({'d'})), outcomes=(Event(name='d-', "
        "members=frozenset({'d-'})), Event(name='d+', "
        "members=frozenset({'d+'})))), "
        "station_nspread=NSpread(spreads=(Spread(initial=Event(name='d', "
        "members=frozenset({'d'})), outcomes=(Event(name='d-', "
        "members=frozenset({'d-'})), Event(name='d+', "
        "members=frozenset({'d+'})))),)), "
        "inconsistent=(OutcomeVector(terms=(Event(name='d-', "
        "members=frozenset({'d-'})),)),))"
    ),
    "TraceStep": (
        "TraceStep(rule='contradiction', context='xyy', detail='both', "
        "conclusion='x1')"
    ),
    "ValidationReport": (
        "ValidationReport(check='density', status='waived', "
        "violations=('gap',), notes=('finite',))"
    ),
    "ValueSearchResult": (
        "ValueSearchResult(constraints=((('x', 'x', 'x'), 1),), total=64, "
        "satisfying=32, witnesses=((1, 1, 1, 1, 1, 1),))"
    ),
}


def hash_or_none(value):
    try:
        return hash(value)
    except TypeError:
        return None


def refuses(record, attempt):
    try:
        attempt(record)
    except AttributeError:
        return True
    return False


def raised(call):
    """The name of the exception ``call()`` raises, or None."""
    try:
        call()
    except Exception as exc:
        return type(exc).__name__
    return None


def binding(name):
    """How the constructor binds its arguments, as JSON-able values."""
    cls, kwargs = CASES[name]
    values = tuple(kwargs.values())
    rest = dict(list(kwargs.items())[1:])
    defaults = DEFAULTS.get(name, {})
    required = {k: v for k, v in kwargs.items() if k not in defaults}

    def without(key):
        return {k: v for k, v in kwargs.items() if k != key}

    bare = cls(**required)
    return {
        "positional": repr(cls(*values)) == repr(cls(**kwargs)),
        "mixed": repr(cls(values[0], **rest)) == repr(cls(**kwargs)),
        "missing": [raised(lambda: cls(**without(k))) for k in required],
        "too_many": raised(lambda: cls(*values, None)),
        "unknown_keyword": raised(lambda: cls(**kwargs, extra=None)),
        "twice": raised(lambda: cls(values[0], **kwargs)),
        "defaults": {
            key: getattr(bare, key) == value for key, value in defaults.items()
        },
    }


def expected_binding(name):
    required = [k for k in CASES[name][1] if k not in DEFAULTS.get(name, {})]
    return {
        "positional": True,
        "mixed": True,
        "missing": ["TypeError"] * len(required),
        "too_many": "TypeError",
        "unknown_keyword": "TypeError",
        "twice": "TypeError",
        "defaults": {key: True for key in DEFAULTS.get(name, {})},
    }


def holds_model(name):
    """Whether a copy of the record holds a copy of a model, which
    compares unequal to the original by identity."""
    cls, kwargs = CASES[name]
    return cls is CausalModel or any(v is _model for v in kwargs.values())


def facts(name):
    """What one record does, as JSON-able values."""
    cls, kwargs = CASES[name]
    record = cls(**kwargs)
    twin = cls(**kwargs)
    fields = tuple(kwargs.values())
    copies = [
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ]
    out = {
        "repr": repr(record),
        "equal": record == twin and not record != twin,
        "other_class": record.__eq__(fields) is NotImplemented,
        "hash": hash_or_none(record) == hash_or_none(fields),
        "copies_repr": [repr(c) == repr(record) for c in copies],
        "copies_type": [type(c) is cls for c in copies],
        "refuses": [
            refuses(record, lambda r: setattr(r, key, None))
            for key in [*kwargs, "extra"]
        ] + [
            refuses(record, lambda r: delattr(r, key)) for key in kwargs
        ],
        "binding": binding(name),
    }
    if not holds_model(name):
        out["copies_equal"] = [c == record for c in copies]
    if cls is CausalModel:
        out["equal"] = record == record and record != twin
        out["other_class"] = record.__eq__(twin) is NotImplemented
        out["hash"] = hash(record) == object.__hash__(record)
    if cls in CACHED_HASH:
        out["cached_hash"] = record._hash == hash(fields)
    return out


def expected(name):
    cls = CASES[name][0]
    out = {
        "repr": REPRS[name],
        "equal": True,
        "other_class": True,
        "hash": True,
        "copies_repr": [True] * 3,
        "copies_type": [True] * 3,
        "refuses": [True] * (2 * len(CASES[name][1]) + 1),
        "binding": expected_binding(name),
    }
    if not holds_model(name):
        out["copies_equal"] = [True] * 3
    if cls in CACHED_HASH:
        out["cached_hash"] = True
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_contract(name):
    assert facts(name) == expected(name)


def test_record_contract_holds_under_optimisation():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    probe = (
        "import json\n"
        "from tests.test_records import CASES, facts\n"
        "print(json.dumps({name: facts(name) for name in CASES}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", probe],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {name: expected(name) for name in CASES}


def test_report_payload_defaults_to_an_empty_dict():
    assert Report(command="c", status="pass", findings=()).payload == {}
    assert Report("c", "pass", (), None).payload == {}
    a, b = Report("c", "pass", ()), Report("c", "pass", ())
    assert a == b and a.payload is not b.payload


def public_names(cls):
    return {n for n in dir(cls) if not n.startswith("_")}


def test_the_model_and_its_histories_are_their_masks():
    # the order is asked through masks; no set view or order helper is
    # carried beside them
    assert public_names(CausalModel) == {
        "points", "index", "up", "down", "cover",
        "mask", "names", "maximal", "covers",
        "histories", "history_bits", "memo",
    }
    assert public_names(History) == {"top", "mask"}


def record_classes(base=_Record):
    for cls in base.__subclasses__():
        yield cls
        yield from record_classes(cls)


def test_every_record_is_a_case():
    assert sorted(cls.__name__ for cls in record_classes()) == sorted(CASES)


def test_only_records_that_do_more_than_set_fields_write_an_init():
    # a record that only sets its fields takes the base's constructor
    own = {n for n, (cls, _) in CASES.items() if "__init__" in vars(cls)}
    assert own == OWN_INIT


def test_binding_errors_name_the_record_and_the_field():
    missing = r"^History\(\) missing argument 'mask'"
    with pytest.raises(TypeError, match=missing):
        History("b")
    with pytest.raises(TypeError, match=r"^History\(\) takes 2 arguments"):
        History("b", 3, 4)
    with pytest.raises(TypeError, match="unexpected keyword argument 'size'"):
        History("b", 3, size=2)
    with pytest.raises(TypeError, match="multiple values for argument 'top'"):
        History("b", 3, top="b")
