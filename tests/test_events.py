"""Event roles, spread validation, and consistency grading."""

import copy
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bstghz import events
from bstghz.common_cause import check_common_cause
from bstghz.errors import InvalidSpread, MisclassifiedEvent, UnknownPoint
from bstghz.events import (
    Event,
    NSpread,
    OutcomeVector,
    Spread,
    classify_event,
    consistency_grade,
    is_consistent,
    is_spacelike,
    validate_spread,
)
from bstghz.model import build_model

from .oracles import (
    brute_force_grade,
    brute_force_is_consistent,
    enumerate_outcome_vectors,
    random_chain,
    random_spread,
    reference_spread_report,
    seeded_model,
    seeded_order,
    seeded_station_model,
    set_classify_event,
    set_model,
)


def ev(*names):
    return [Event(name=n, members=frozenset({n})) for n in names]


def broken_masks(model, ns):
    """An n-spread record of history masks no model has: the initials in
    no history together, every outcome in all of them, so every vector
    consistent and the n-spread not 1-consistent."""
    every = (1 << len(model.histories)) - 1
    outs = tuple((every,) * len(s.outcomes) for s in ns.spreads)
    count = math.prod(map(len, outs))
    return 0, outs, count, tuple(range(count)), False


def fork():
    return build_model(["d", "d-", "d+"], [("d", "d-"), ("d", "d+")])


class TestEventBasics:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Event(name="", members=frozenset({"a"}))

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError):
            Event(name="e", members=frozenset())

    def test_spread_needs_outcomes(self):
        (i,) = ev("d")
        with pytest.raises(ValueError, match="at least one outcome"):
            Spread(initial=i, outcomes=())

    def test_spread_rejects_repeated_outcome_names(self):
        i, o = ev("d", "d-")
        with pytest.raises(ValueError, match="repeats"):
            Spread(initial=i, outcomes=(o, o))

    def test_nspread_needs_spreads(self):
        with pytest.raises(ValueError):
            NSpread(spreads=())

    def test_vector_labels(self):
        a, b = ev("a-", "b+")
        v = OutcomeVector(terms=(a, b))
        assert v.names == ("a-", "b+")
        assert v.label() == "a-,b+"


class TestRecordHash:
    def test_replace_hashes_afresh(self):
        (d,) = ev("d")
        fresh = Event(name=d.name, members=d.members)
        for made in (copy.copy(d), copy.deepcopy(d), fresh):
            assert hash(made) == hash(Event(d.name, d.members))
        renamed = Event(name="e", members=d.members)
        assert hash(renamed) == hash(Event(name="e", members=d.members))
        assert hash(renamed) != hash(d)

    def test_equal_records_share_one_memo_entry(self):
        f = fork()
        built = []
        for _ in range(2):
            d, dm, dp = ev("d", "d-", "d+")
            spread = Spread(initial=d, outcomes=(dm, dp))
            built.append(NSpread(spreads=(spread,)))
        a, b = built
        # equal at every level, the same object at none
        assert a is not b and a.spreads[0] is not b.spreads[0]
        assert a.spreads[0].initial is not b.spreads[0].initial
        assert a == b and not a != b and hash(a) == hash(b)
        consistency_grade(f, a)
        size = len(f.memo)
        consistency_grade(f, b)
        assert len(f.memo) == size and f.memo[b] is f.memo[a]
        assert [key for key in f.memo if key == b] == [a]
        assert NSpread(spreads=(a.spreads[0], b.spreads[0])) != a

    def test_hash_is_not_pickled(self):
        # a record pickled under one hash seed and loaded under another
        # must hash like a fresh record of the loading process
        make = (
            "from bstghz.events import Event, NSpread, Spread\n"
            "d, o = (Event(n, frozenset({n})) for n in ('d', 'd+'))\n"
            "ns = NSpread((Spread(d, (o,)),))\n"
        )
        dump = make + (
            "import pickle, sys\n"
            "sys.stdout.buffer.write(pickle.dumps((d, ns)))"
        )
        load = make + (
            "import pickle, sys\n"
            "d2, ns2 = pickle.loads(sys.stdin.buffer.read())\n"
            "print(d2 == d, hash(d2) == hash(d), d2 in {d}, ns2 in {ns})"
        )
        src = str(Path(events.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        data = subprocess.run(
            [sys.executable, "-c", dump],
            capture_output=True,
            check=True,
            env={**env, "PYTHONHASHSEED": "1"},
        ).stdout
        out = subprocess.run(
            [sys.executable, "-c", load],
            input=data,
            capture_output=True,
            check=True,
            env={**env, "PYTHONHASHSEED": "2"},
        ).stdout
        assert out == b"True True True True\n"


class TestClassifyEvent:
    def test_singletons_are_stable(self, toy):
        for p in toy.model.points:
            c = classify_event(
                toy.model, Event(name=p, members=frozenset({p}))
            )
            assert c.is_initial and c.is_outcome and c.is_stable

    def test_chain_through_a_branch_point_is_not_stable(self):
        f = fork()
        c = classify_event(
            f, Event(name="e", members=frozenset({"d", "d-"}))
        )
        assert c.is_initial and c.is_outcome
        assert not c.is_stable  # the d+ history overlaps it at d only

    def test_non_chain_has_no_role(self):
        f = fork()
        c = classify_event(
            f, Event(name="e", members=frozenset({"d-", "d+"}))
        )
        assert not (c.is_initial or c.is_outcome or c.is_stable)

    def test_chain_inside_one_history_is_stable(self):
        m = build_model(["a", "b", "c"], [("a", "b"), ("b", "c")])
        c = classify_event(
            m, Event(name="e", members=frozenset({"a", "b"}))
        )
        assert c.is_stable

    @settings(deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.05, 0.15, 0.35, 0.6]),
    )
    def test_agrees_with_the_set_classification(self, seed, edge_prob):
        rng = random.Random(seed)
        names, pairs = seeded_order(rng, max_points=12, edge_prob=edge_prob)
        fast, slow = build_model(names, pairs), set_model(names, pairs)
        for k in range(12):
            if k % 2:
                members = random_chain(fast, rng)
            else:
                size = rng.randint(1, min(3, len(names)))
                members = frozenset(rng.sample(names, size))
            e = Event(name="e", members=members)
            assert classify_event(fast, e) == set_classify_event(slow, e)


class TestIsConsistent:
    def test_branch_outcomes_exclude_each_other(self):
        f = fork()
        d, dm, dp = ev("d", "d-", "d+")
        assert is_consistent(f, [d], [dm])
        assert is_consistent(f, [d], [dp])
        assert not is_consistent(f, (), (dm, dp))

    def test_toy_anticorrelation(self, toy):
        e = toy.events
        assert is_consistent(toy.model, (), (e["a-"], e["b+"]))
        assert is_consistent(toy.model, (), (e["a+"], e["b-"]))
        assert not is_consistent(toy.model, (), (e["a-"], e["b-"]))
        assert not is_consistent(toy.model, (), (e["a+"], e["b+"]))

    def test_role_misuse_raises(self):
        f = fork()
        non_chain = Event(name="e", members=frozenset({"d-", "d+"}))
        with pytest.raises(MisclassifiedEvent):
            is_consistent(f, [non_chain], ())
        with pytest.raises(MisclassifiedEvent):
            is_consistent(f, (), [non_chain])

    def test_empty_question_is_trivially_consistent(self):
        assert is_consistent(fork())

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_agrees_with_the_history_scan(self, seed):
        rng = random.Random(seed)
        m = seeded_model(rng, max_points=12)
        for _ in range(10):
            # a finite chain is bounded by its own extremes, so every
            # chain passes both role checks
            ini = [
                Event(name=f"i{k}", members=random_chain(m, rng))
                for k in range(rng.randint(0, 2))
            ]
            out = [
                Event(name=f"o{k}", members=random_chain(m, rng))
                for k in range(rng.randint(0, 3))
            ]
            assert is_consistent(m, ini, out) == brute_force_is_consistent(
                m, ini, out
            )

    def test_misclassified_initial_raises_on_every_call(self):
        f = fork()
        non_chain = Event(name="e", members=frozenset({"d-", "d+"}))
        d, dm = ev("d", "d-")
        for _ in range(2):
            with pytest.raises(MisclassifiedEvent, match="not an initial"):
                is_consistent(f, [d, non_chain], [dm])
            report = validate_spread(f, Spread(initial=non_chain, outcomes=(dm,)))
            assert report.violations == ("'e' is not an initial event",)

    def test_misclassified_outcome_raises_on_every_call(self):
        f = fork()
        non_chain = Event(name="e", members=frozenset({"d-", "d+"}))
        d, dm = ev("d", "d-")
        for _ in range(2):
            with pytest.raises(MisclassifiedEvent, match="not an outcome"):
                is_consistent(f, [d], [dm, non_chain])
            report = validate_spread(f, Spread(initial=d, outcomes=(non_chain,)))
            assert report.violations == ("'e' is not an outcome event",)

    def test_unknown_point_raises_on_every_call(self):
        (stray,) = ev("zz")
        for _ in range(2):
            with pytest.raises(UnknownPoint):
                is_consistent(fork(), [stray], ())

    def test_undeclared_one_point_event_raises_alike_on_every_call(
        self, toy
    ):
        """A one-point event skips the chain check, and its record is
        read off its point's index; an undeclared point still raises the
        same :class:`UnknownPoint` on one model, call after call, from
        every reader of the record, and the memo never holds it."""
        f = fork()
        (stray,) = ev("zz")
        d, dm = ev("d", "d-")
        candidate = Spread(initial=stray, outcomes=toy.decay_spread.outcomes)
        calls = [
            lambda: is_consistent(f, [stray], ()),
            lambda: is_consistent(f, (), [stray]),
            lambda: classify_event(f, stray),
            lambda: validate_spread(f, Spread(initial=stray, outcomes=(dm,))),
            lambda: validate_spread(f, Spread(initial=d, outcomes=(stray,))),
            lambda: check_common_cause(
                toy.model, candidate, toy.station_nspread, toy.inconsistent[0]
            ),
        ]
        messages = []
        for _ in range(2):
            for call in calls:
                with pytest.raises(UnknownPoint) as caught:
                    call()
                messages.append(str(caught.value))
        assert messages == ["unknown point id: 'zz'"] * 12
        assert stray.members not in f.memo
        assert stray.members not in toy.model.memo

    def test_role_checks_are_not_shared_between_models(self):
        e = Event(name="e", members=frozenset({"a", "b"}))
        chain = build_model(["a", "b"], [("a", "b")])
        antichain = build_model(["a", "b"], [])
        assert is_consistent(chain, [e], [e])
        with pytest.raises(MisclassifiedEvent):
            is_consistent(antichain, [e], ())
        with pytest.raises(MisclassifiedEvent):
            is_consistent(antichain, (), [e])


class TestValidateSpread:
    def test_toy_spreads_valid(self, toy):
        for s in (toy.decay_spread, *toy.station_nspread.spreads):
            assert validate_spread(toy.model, s).status == "pass"

    def test_missing_outcome_violates_exhaustiveness(self):
        f = fork()
        d, dm = ev("d", "d-")
        r = validate_spread(f, Spread(initial=d, outcomes=(dm,)))
        assert r.status == "fail"
        assert any(v.startswith("(ii)") for v in r.violations)

    def test_initial_not_preceding_outcome(self):
        f = fork()
        dm, dp = ev("d-", "d+")
        r = validate_spread(f, Spread(initial=dm, outcomes=(dp,)))
        assert any(v.startswith("(i)") for v in r.violations)

    def test_outcomes_sharing_a_history(self):
        m = build_model(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
        a, b, c = ev("a", "b", "c")
        r = validate_spread(m, Spread(initial=a, outcomes=(b, c)))
        assert any(v.startswith("(iii)") for v in r.violations)

    def test_misclassified_initial_fails_early(self):
        f = fork()
        bad = Event(name="e", members=frozenset({"d-", "d+"}))
        (dm,) = ev("d-")
        r = validate_spread(f, Spread(initial=bad, outcomes=(dm,)))
        assert r.status == "fail"
        assert "not an initial event" in r.violations[0]

    @settings(deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.15, 0.35, 0.6]),
    )
    def test_agrees_with_the_reference_report(self, seed, edge_prob):
        rng = random.Random(seed)
        m = seeded_model(rng, max_points=12, edge_prob=edge_prob)
        for _ in range(10):
            spread = random_spread(m, rng)
            assert validate_spread(m, spread) == reference_spread_report(
                m, spread
            )


class TestGrading:
    def test_vector_enumeration_order(self, toy):
        labels = [
            v.label()
            for v in enumerate_outcome_vectors(toy.station_nspread)
        ]
        assert labels == ["a-,b-", "a-,b+", "a+,b-", "a+,b+"]

    def test_toy_station_pair_is_one_consistent_not_maximal(self, toy):
        g = consistency_grade(toy.model, toy.station_nspread)
        assert g.minimal and g.one_consistent and not g.maximal
        assert g.vector_count == 4
        assert [v.names for v in g.inconsistent_vectors] == [
            ("a-", "b-"),
            ("a+", "b+"),
        ]

    def test_single_spread_is_maximal(self, toy):
        g = consistency_grade(
            toy.model, NSpread(spreads=(toy.decay_spread,))
        )
        assert g.maximal and not g.inconsistent_vectors

    def test_invalid_spread_is_rejected(self):
        f = fork()
        d, dm = ev("d", "d-")
        ns = NSpread(spreads=(Spread(initial=d, outcomes=(dm,)),))
        with pytest.raises(InvalidSpread):
            consistency_grade(f, ns)

    def test_broken_implication_chain_raises(self, toy, monkeypatch):
        # initials in no history, every outcome in all of them: maximal but
        # not 1-consistent, which no correct set of history masks allows
        monkeypatch.setattr(events, "_nspread_record", broken_masks)
        with pytest.raises(RuntimeError, match="implication chain"):
            consistency_grade(toy.model, toy.station_nspread)

    def test_broken_implication_chain_raises_under_optimize(self):
        script = textwrap.dedent(
            """
            import math

            from bstghz import build_toy_decay, consistency_grade, events

            def broken_masks(model, ns):
                every = (1 << len(model.histories)) - 1
                outs = tuple((every,) * len(s.outcomes) for s in ns.spreads)
                count = math.prod(map(len, outs))
                return 0, outs, count, tuple(range(count)), False

            events._nspread_record = broken_masks
            toy = build_toy_decay()
            try:
                consistency_grade(toy.model, toy.station_nspread)
            except RuntimeError:
                print("raised")
            """
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(Path(events.__file__).parents[1])},
        )
        assert out.stdout == "raised\n"

    def test_station_models_agree_with_the_oracle(self):
        graded = 0
        for seed in range(60):
            rng = random.Random(seed)
            model, spreads = seeded_station_model(rng)
            for k in range(1, len(spreads) + 1):
                ns = NSpread(spreads=tuple(rng.sample(spreads, k)))
                if not all(
                    reference_spread_report(model, s).ok for s in ns.spreads
                ):
                    with pytest.raises(InvalidSpread):
                        consistency_grade(model, ns)
                    continue
                assert consistency_grade(model, ns) == brute_force_grade(
                    model, ns
                ), (seed, k)
                graded += 1
        assert graded > 100

    def test_toy_decay_agrees_with_the_oracle(self, toy):
        a, b = toy.station_nspread.spreads
        for spreads in [
            (a, b),
            (b, a),
            (toy.decay_spread,),
            (toy.decay_spread, a, b),
            (a, a),
        ]:
            ns = NSpread(spreads=spreads)
            assert consistency_grade(toy.model, ns) == brute_force_grade(
                toy.model, ns
            )

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_box_ranks_are_the_brute_force_consistent_ranks(self, seed):
        # a box keeps a nonempty subset of each spread's outcomes; one spread
        # in five is a random chain spread, whose outcomes may share
        # histories
        rng = random.Random(seed)
        model, pool = seeded_station_model(rng)
        spreads = []
        for s in rng.sample(pool, rng.randint(1, len(pool))):
            if rng.random() < 0.2:
                s = random_spread(model, rng, chain_share=1.0)
            kept = tuple(o for o in s.outcomes if rng.random() < 0.7)
            outcomes = kept or (rng.choice(s.outcomes),)
            spreads.append(Spread(initial=s.initial, outcomes=outcomes))
        box = NSpread(spreads=tuple(spreads))
        inconsistent = set(brute_force_grade(model, box).inconsistent_vectors)
        expected = [
            rank
            for rank, v in enumerate(enumerate_outcome_vectors(box))
            if v not in inconsistent
        ]
        # the outcome masks read off the event records, as the n-spread's
        # record would hold them if its spreads were valid
        outs = [
            [events._event_masks(model, o, "outcome")[2] for o in s.outcomes]
            for s in box.spreads
        ]
        every = (1 << len(model.histories)) - 1
        assert events._box_ranks(outs, every) == expected
        assert events._box_ranks(outs, 0) == []

    def test_grade_makes_no_consistency_query(self, toy, monkeypatch):
        def refuse(*args):
            raise AssertionError("consistency_grade queried is_consistent")

        monkeypatch.setattr(events, "is_consistent", refuse)
        g = consistency_grade(toy.model, toy.station_nspread)
        assert g.vector_count == 4 and len(g.inconsistent_vectors) == 2


class TestInconsistentVectors:
    """A grade's ``inconsistent_vectors`` reads as the tuple that
    ``brute_force_grade`` lists, in the order of ``itertools.product``."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.data())
    def test_reads_as_the_brute_force_tuple(self, seed, data):
        # station spreads drawn with repeats, so that two terms of one
        # vector can be distinct outcomes of one spread
        rng = random.Random(seed)
        model, pool = seeded_station_model(rng)
        ns = NSpread(spreads=tuple(rng.choices(pool, k=rng.randint(1, 4))))
        grade = consistency_grade(model, ns)
        expected = brute_force_grade(model, ns)
        assert grade == expected and expected == grade
        seq, tup = grade.inconsistent_vectors, expected.inconsistent_vectors
        assert type(seq) is events.InconsistentVectors
        # the order is the product's, less its consistent vectors
        product = [
            OutcomeVector(terms=t)
            for t in itertools.product(*[s.outcomes for s in ns.spreads])
        ]
        assert list(seq) == [v for v in product if v in tup]
        assert tuple(seq) == tup
        n = len(tup)
        assert len(seq) == n and bool(seq) == bool(tup)
        assert grade.vector_count == len(product)
        assert seq == tup and tup == seq and not seq != tup
        assert seq != list(tup) and not seq == list(tup)
        assert hash(seq) == hash(tup)
        assert [repr(seq)] == [repr(tup)]
        assert [seq[i] for i in range(n)] == list(tup)
        assert [seq[i] for i in range(-n, 0)] == list(tup)
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                seq[i]
        for _ in range(5):
            cut = data.draw(st.slices(n + 2))
            assert seq[cut] == tup[cut]
        for twin in (
            pickle.loads(pickle.dumps(seq)), copy.copy(seq), copy.deepcopy(seq)
        ):
            assert type(twin) is events.InconsistentVectors
            assert twin == seq and tuple(twin) == tup
        with pytest.raises(AttributeError):
            seq._ranks = ()
        with pytest.raises(AttributeError):
            del seq._ranks
        with pytest.raises(TypeError):
            seq[0] = None
        # another n-spread's sequence equals this one exactly when their
        # tuples do
        other = NSpread(spreads=(rng.choice(pool),))
        theirs = consistency_grade(model, other).inconsistent_vectors
        assert (seq == theirs) == (tup == tuple(theirs)) == (theirs == seq)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.data())
    def test_membership_reads_as_the_tuple(self, seed, data):
        # in, index and count rank the vector against the consistent
        # ranks; each answer is the tuple's, for every outcome vector of
        # the n-spread and for vectors that are none
        rng = random.Random(seed)
        model, pool = seeded_station_model(rng)
        ns = NSpread(spreads=tuple(rng.choices(pool, k=rng.randint(1, 4))))
        seq = consistency_grade(model, ns).inconsistent_vectors
        tup = tuple(seq)
        product = [
            OutcomeVector(terms=t)
            for t in itertools.product(*[s.outcomes for s in ns.spreads])
        ]
        others = [rng.choice(pool).outcomes for _ in range(3)]
        strangers = [
            OutcomeVector(terms=product[0].terms[:-1]),
            OutcomeVector(terms=product[0].terms + product[0].terms[:1]),
            OutcomeVector(terms=tuple(o[0] for o in others)),
            OutcomeVector(terms=tuple(o[-1] for o in others)),
            product[0].terms,
            product[0].names,
            None,
        ]
        n = len(tup)
        for v in product + strangers:
            assert (v in seq) == (v in tup)
            assert seq.count(v) == tup.count(v)
            bounds = data.draw(
                st.lists(
                    st.none() | st.integers(-n - 2, n + 2), max_size=2
                )
            )
            # tuple.index takes no None bound; a slice of the tuple does
            start, stop = (bounds + [None, None])[:2]
            expected = next(
                (i for i in range(n)[start:stop] if tup[i] == v), None
            )
            if expected is None:
                with pytest.raises(ValueError):
                    seq.index(v, *bounds)
            else:
                assert seq.index(v, *bounds) == expected

    def test_width_64_is_indexed_without_iterating(
        self, scale_grade, monkeypatch
    ):
        model, ns = scale_grade.width_model(64)
        grade = consistency_grade(model, ns)
        seq = grade.inconsistent_vectors

        def refuse(self):
            raise AssertionError("iterated over the inconsistent vectors")

        monkeypatch.setattr(events.InconsistentVectors, "__iter__", refuse)
        n = 2**64 - 3
        assert grade.vector_count == 2**64 and not grade.maximal
        assert seq.__len__() == n and seq
        # like len(range(2**64)), len past sys.maxsize overflows
        with pytest.raises(OverflowError):
            len(seq)
        # rank 0 (all -) and rank 2^64 - 1 (all +) are consistent
        first = ("-",) * 63 + ("+",)
        last = ("+",) * 63 + ("-",)
        for index, signs in [
            (0, first), (-n, first), (-1, last), (n - 1, last),
        ]:
            assert [t.name[-1] for t in seq[index].terms] == list(signs)
            assert seq[index].names[0] == f"s00{signs[0]}"
        assert seq[:2] == (seq[0], seq[1]) and seq[-1:] == (seq[-1],)
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                seq[index]
        # membership ranks the vector, without reading the sequence out:
        # the consistent all-plus and all-minus vectors are not in it, and
        # neither is a vector one term short
        for index in (0, 1, 2**40, n - 1):
            v = seq[index]
            assert v in seq and seq.count(v) == 1
            assert seq.index(v) == index and seq.index(v, index) == index
            with pytest.raises(ValueError):
                seq.index(v, index + 1)
        spreads = ns.spreads
        for sign in "+-":
            v = OutcomeVector(
                terms=tuple(s.outcomes[sign == "+"] for s in spreads)
            )
            assert v.names[0] == f"s00{sign}"
            assert v not in seq and seq.count(v) == 0
            with pytest.raises(ValueError):
                seq.index(v)
        short = OutcomeVector(terms=seq[0].terms[1:])
        assert short not in seq and seq.count(short) == 0
        # equality tells by state or by length, without reading out
        assert pickle.loads(pickle.dumps(seq)) == seq
        narrower = consistency_grade(*scale_grade.width_model(63))
        assert seq != narrower.inconsistent_vectors


class TestSpacelike:
    def test_station_pair_is_spacelike(self, toy):
        assert is_spacelike(toy.model, toy.station_nspread)

    def test_decay_before_station_is_not(self, toy):
        ns = NSpread(
            spreads=(toy.decay_spread, toy.station_nspread.spreads[0])
        )
        assert not is_spacelike(toy.model, ns)

    def test_single_spread_is_spacelike(self, toy):
        assert is_spacelike(toy.model, NSpread(spreads=(toy.decay_spread,)))
