"""Finite causal models: a strict partial order on point events.

A model is a nonempty finite set of point events together with a strict
(irreflexive, transitive) order.  Histories are the maximal directed
subsets: a set of points is directed when any two of its members have a
common upper bound *within the set*.  In a finite model every maximal
directed subset is automatically downward closed and is the down-closure
of a unique maximal point, so ``build_model`` simply takes the
principal down-set of each maximal point.  The test suite re-verifies
that characterization against a brute-force enumeration of directed
subsets.

The order is held as integer bitsets over the sorted points: bit i of a
mask stands for ``points[i]``.  ``up[i]`` and ``down[i]`` are the strict
successors and predecessors of ``points[i]`` under the full transitive
relation, and ``cover[i]`` its immediate successors.  ``build_model``
computes them with one OR per supplied pair in each direction of a
topological order.  A history is a mask too, and every order question
(comparison, maxima, chains, choice points, prior choice, density) is
answered by integer arithmetic on these masks.  Naming a mask's members
walks its bits in index order, so names come out sorted.

Consistency questions are answered from one bitmask per point,
``history_bits``: bit k is set when ``histories[k]`` contains the point.
``build_model`` fills both in its pass back over the topological order:
a maximal point has its own history bit (the maxima are numbered in
index order), and any other point's mask is the OR of its successors'.
The same pass marks the *branching* points, ``branching``: those with
no successor whose history mask equals their own, so no cover lies in
every history through them (a maximal point branches vacuously).  A
choice point of two histories is a maximal point of their intersection;
the intersection is down-closed, so a member is maximal in it exactly
when no cover of it is in it, and a point with a cover in all its
histories is never one.  ``check_prior_choice`` therefore looks for
choice points among the branching members of an intersection only.
``memo`` holds the derived results of the layers above (event masks,
passed role checks, candidate spreads), so they live and die with the
model.

The postulate checks (`check_prior_choice`, `check_infima_suprema`,
`check_density`) return reports instead of raising: a malformed *input*
raises, a *failed property* is data.  The infima/suprema postulate holds
in every finite model (a finite chain's least and greatest members are
its bounds), so its check reports a pass without scanning; density fails
in every nontrivial finite order and is reported as waived.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from functools import cached_property
from typing import Any, Iterable, Mapping

from .errors import CycleDetected, EmptyModel, SameHistory, UnknownPoint

PointEventId = str


def bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, in increasing order."""
    if not mask & (mask - 1):
        return [mask.bit_length() - 1] if mask else []
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


class _Record:
    """An immutable record: the base of the package's result types.

    A subclass's fields are its public ``__slots__``, in declared order,
    and its constructor takes them as a function with that signature
    would: positionally, by keyword, or both.  A field missing from the
    call takes its value from the class's ``_defaults``, a dict from
    field name to value (empty unless the class sets it; only trailing
    fields have one); a field still missing, one given twice, an unknown
    keyword or one positional too many raise :class:`TypeError`.  Each
    field is set through its slot's own setter, which
    ``__init_subclass__`` caches per class, since ``__setattr__`` refuses;
    a class with a ``_hash`` slot also gets that slot's setter as
    ``_put_hash``, for a constructor that caches the hash.  A record
    defines its own ``__init__`` only when it does more than
    set its fields (it checks them, caches a hash or fills a default that
    must be fresh per call), or when a benchmarked operation builds it
    several times and a hand-written one is measurably faster.  A call
    that passes every field positionally skips the binding, which costs
    a keyword call one to two microseconds more; the package's calls on
    benchmarked operations pass fields so where that cost showed in the
    operation's time, and by keyword elsewhere.

    The fields decide equality, hash and repr, as in a frozen dataclass:
    records of one class are equal when their fields are, the hash is
    that of the field tuple, and the repr is ``Name(field=value, ...)``.
    A record refuses assignment and deletion, and pickles and copies as
    its constructor call.
    """

    __slots__ = ()
    _defaults: Mapping[str, Any] = {}

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(s for s in cls.__slots__ if not s.startswith("_"))
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)
        if "_hash" in cls.__slots__:
            cls._put_hash = cls._hash.__set__

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for put, value in zip(setters, args):
            put(self, value)

    @classmethod
    def _bind(
        cls, args: tuple[Any, ...], kwargs: dict[str, Any]
    ) -> list[Any]:
        """The field values of a call, in declared order."""
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} arguments but {len(args)} "
                "were given"
            )
        for key in kwargs:
            if key not in fields:
                raise TypeError(
                    f"{name}() got an unexpected keyword argument {key!r}"
                )
            if fields.index(key) < len(args):
                raise TypeError(
                    f"{name}() got multiple values for argument {key!r}"
                )
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs[field])
            elif field in cls._defaults:
                values.append(cls._defaults[field])
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        return values

    def _values(self) -> tuple[Any, ...]:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        return type(self), self._values()


class _LazyTuple(Sequence):
    """A read-only sequence that stands for the tuple of its items and
    reads them out only when asked: the base of ``ghz.ProfileSet`` and
    ``events.InconsistentVectors``.

    A subclass keeps its state in private ``__slots__``, set by its
    constructor through ``object.__setattr__``, and defines ``__len__``,
    ``__bool__``, ``__iter__`` and ``_item(i)``, the item at an index
    ``0 <= i < len``.  This base gives it the rest of a tuple's reading:
    a negative index counts from the end, one outside the sequence raises
    :class:`IndexError`, and a slice gives the tuple of the items it
    selects.  The sequence equals, hashes and prints as the tuple of its
    items, and equals another of its class with the same state without
    reading either out.  It refuses assignment and deletion, and pickles
    and copies as its constructor call on its state.  As with ``range``,
    ``len`` of a sequence longer than ``sys.maxsize`` raises
    :class:`OverflowError`; indexing, slicing and equality read
    ``__len__`` itself and take any length.
    """

    __slots__ = ()

    def _state(self) -> tuple[Any, ...]:
        return tuple([getattr(self, s) for s in self.__slots__])

    def _item(self, i: int) -> Any:
        raise NotImplementedError

    def __getitem__(self, index: Any) -> Any:
        n = self.__len__()
        if isinstance(index, slice):
            return tuple(map(self._item, range(*index.indices(n))))
        i = operator.index(index)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"{type(self).__name__} index out of range")
        return self._item(i)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__ and (
            self._state() == other._state()  # type: ignore[attr-defined]
        ):
            return True
        if isinstance(other, (tuple, _LazyTuple)):
            return self.__len__() == other.__len__() and all(
                map(operator.eq, self, other)
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}")

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        return type(self), self._state()


class History(_Record):
    """A maximal directed subset of a model, identified by its top point.

    ``mask`` has bit i set for each member ``points[i]`` of the model;
    ``model.names(mask)`` names them.
    """

    __slots__ = ("top", "mask")


class ValidationReport(_Record):
    """Outcome of one structural check.

    ``status`` is ``"pass"``, ``"fail"`` or ``"waived"``; a waived check is
    one whose property cannot hold in the finite setting and is reported
    rather than enforced.  ``violations`` carries one line per failure (or
    the witness for a waiver), ``notes`` carries commentary.
    """

    __slots__ = ("check", "status", "violations", "notes")
    _defaults = {"violations": (), "notes": ()}

    @property
    def ok(self) -> bool:
        return self.status != "fail"


class CausalModel(_Record):
    """A finite strict partial order over named point events, as bitsets.

    ``points`` is sorted and ``index`` maps a point to its position there.
    ``up[i]``, ``down[i]`` and ``cover[i]`` are masks over those
    positions: the points strictly above ``points[i]``, strictly below
    it (both under the full transitive relation, not just the supplied
    pairs), and immediately above it.  ``histories`` are the maximal
    directed subsets, the principal down-sets of the maximal points in
    index order, and ``history_bits`` maps each point to the histories
    containing it as a mask: bit k stands for ``histories[k]``.
    ``branching`` is the mask of the points none of whose covers lies
    in every history containing the point, the maximal points included;
    every choice point of two histories is among them.  Instances are
    built through :func:`build_model` and treated as immutable; identity
    comparison is intentional.
    """

    __slots__ = (
        "points", "index", "up", "down", "cover", "histories",
        "history_bits", "branching", "__dict__",
    )
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    # -- masks ------------------------------------------------------------

    def mask(self, pts: Iterable[PointEventId]) -> int:
        """The given points as a mask; raises :class:`UnknownPoint`."""
        m = 0
        for p in pts:
            i = self.index.get(p)
            if i is None:
                raise UnknownPoint(f"unknown point id: {p!r}")
            m |= 1 << i
        return m

    def names(self, mask: int) -> list[PointEventId]:
        """The points of ``mask``, sorted."""
        return [self.points[i] for i in bit_indices(mask)]

    def maximal(self, mask: int) -> int:
        """Members of ``mask`` with no strictly greater member in it."""
        below = 0
        for i in bit_indices(mask):
            below |= self.down[i]
        return mask & ~below

    def covers(self, p: PointEventId) -> tuple[PointEventId, ...]:
        """Immediate successors of ``p``: q > p with nothing in between."""
        return tuple(self.names(self.cover[self.index[p]]))

    @cached_property
    def memo(self) -> dict[Any, Any]:
        """Memo of the layers above, filled by ``events`` and ``common_cause``.

        Holds results that depend on this model alone, keyed by the
        caller.  It is never shared across models.  An entry is written
        only once the check it stands for has passed, so a hit replaces
        the check, and input that fails raises every time and leaves no
        entry.
        """
        return {}


def build_model(
    points: Iterable[PointEventId],
    order_pairs: Iterable[tuple[PointEventId, PointEventId]],
) -> CausalModel:
    """Construct a model from point ids and generating order pairs.

    The supplied pairs may be any generating set; the transitive closure is
    computed here, as bitsets, in one pass over a topological order for
    the predecessors and one pass back for the successors, the covers,
    the histories containing each point and the branching points.
    Raises :class:`EmptyModel`, :class:`UnknownPoint` for a pair
    mentioning an undeclared id (the lower one when both are),
    :class:`CycleDetected` naming the first point, in input order, that
    lies on a cycle, and ``ValueError`` for duplicate or empty point
    labels.  The ids are tested in bulk, the repeats and the blank on
    the index; when a test fails, one walk in input order names the
    first offender.
    """
    pts = list(points)
    if not pts:
        raise EmptyModel("a model needs at least one point event")
    if not all(map(str.__instancecheck__, pts)):
        raise _bad_point_id(pts)
    ordered = tuple(sorted(pts))
    index = {p: i for i, p in enumerate(ordered)}
    if len(index) < len(pts) or "" in index:
        raise _bad_point_id(pts)

    n = len(ordered)
    succ: list[set[int]] = [set() for _ in ordered]
    indegree = [0] * n
    for a, b in order_pairs:
        try:
            after, j = succ[index[a]], index[b]
        except KeyError:
            p = a if a not in index else b
            raise UnknownPoint(
                f"unknown point id in order pair: {p!r}"
            ) from None
        if j not in after:
            after.add(j)
            indegree[j] += 1

    # Sources first (Kahn): a point's predecessors are final when its last
    # incoming pair is taken, and it passes them on with itself.
    down = [0] * n
    topo = [i for i in range(n) if not indegree[i]]
    for i in topo:
        passed = down[i] | 1 << i
        for j in succ[i]:
            down[j] |= passed
            indegree[j] -= 1
            if not indegree[j]:
                topo.append(j)
    if len(topo) < n:
        p = _first_on_cycle(pts, index, succ, set(range(n)) - set(topo))
        raise CycleDetected(f"ordering cycle through point {p!r}")

    # Sinks first: the k-th maximal point tops history k and lies in it
    # alone; every other point lies in the histories of its successors.
    # A point branches unless some successor lies in all its histories;
    # when one does, so does a cover below it, so testing the supplied
    # successors tests the covers.
    tops = [i for i, s in enumerate(succ) if not s]
    up = [0] * n
    cover = [0] * n
    reach = [0] * n
    branching = 0
    for k, i in enumerate(tops):
        reach[i] = 1 << k
    for i in reversed(topo):
        direct = beyond = 0
        hist = reach[i]
        for j in succ[i]:
            direct |= 1 << j
            beyond |= up[j]
            hist |= reach[j]
        up[i] = direct | beyond
        cover[i] = direct & ~beyond
        reach[i] = hist
        for j in succ[i]:
            if reach[j] == hist:
                break
        else:
            branching |= 1 << i

    histories = tuple(History(ordered[i], down[i] | 1 << i) for i in tops)
    return CausalModel(
        ordered, index, tuple(up), tuple(down), tuple(cover), histories,
        dict(zip(ordered, reach)), branching,
    )


def _bad_point_id(pts: list[Any]) -> ValueError:
    """The error naming the first point id, in input order, that is not a
    nonempty string or repeats an earlier one."""
    seen: set[PointEventId] = set()
    for p in pts:
        if not isinstance(p, str) or not p:
            return ValueError(f"point ids must be nonempty strings, got {p!r}")
        if p in seen:
            return ValueError(f"duplicate point id: {p!r}")
        seen.add(p)
    raise AssertionError("no bad point id")


def _first_on_cycle(
    pts: list[PointEventId],
    index: Mapping[PointEventId, int],
    succ: list[set[int]],
    stuck: set[int],
) -> PointEventId:
    """The first point of ``pts`` that reaches itself.

    Only points left out of the topological order (``stuck``) can lie on
    a cycle, and a cycle runs through stuck points alone.
    """
    for p in pts:
        start = index[p]
        if start not in stuck:
            continue
        reached: set[int] = set()
        stack = [j for j in succ[start] if j in stuck]
        while stack:
            q = stack.pop()
            if q == start:
                return p
            if q not in reached:
                reached.add(q)
                stack.extend(j for j in succ[q] if j in stuck)
    raise AssertionError("a topological sort stalled without a cycle")


def is_chain(model: CausalModel, pts: Iterable[PointEventId]) -> bool:
    """True when the given nonempty points are pairwise comparable."""
    members = model.mask(pts)
    if not members:
        raise ValueError("a chain must be nonempty")
    return _is_chain_mask(model, members)


def _is_chain_mask(model: CausalModel, members: int) -> bool:
    """True when the points of the mask ``members`` are pairwise comparable."""
    return all(
        not members & ~(model.up[i] | model.down[i] | 1 << i)
        for i in bit_indices(members)
    )


def compute_histories(model: CausalModel) -> tuple[History, ...]:
    """All histories of the model (built with it)."""
    return model.histories


def _require_history(model: CausalModel, h: History) -> None:
    if h not in model.histories:
        raise ValueError(f"not a history of this model: {h.top!r}")


def choice_points(
    model: CausalModel, h1: History, h2: History
) -> frozenset[PointEventId]:
    """Maximal elements of the intersection of two distinct histories.

    The intersection may be empty (disjoint histories), in which case the
    result is empty.  Passing the same history twice raises
    :class:`SameHistory`.
    """
    _require_history(model, h1)
    _require_history(model, h2)
    if h1.mask == h2.mask:
        raise SameHistory(f"histories coincide at top {h1.top!r}")
    return frozenset(model.names(model.maximal(h1.mask & h2.mask)))


def check_prior_choice(model: CausalModel) -> ValidationReport:
    """Check that branching is always located at a choice point.

    For each ordered pair of distinct histories h1, h2 and each point e in
    h1 but not h2 there must be a choice point of the pair strictly below
    e.  Every finite chain in h1 - h2 has a minimum, so checking single
    points covers all chains.

    The choice points of a pair are the maxima of ``I = h1 & h2``, and
    the points they precede are the OR of their ``up`` masks; both depend
    on ``I`` alone, so they are computed once per distinct intersection.
    ``I`` is down-closed, so a member c is maximal in it exactly when
    ``cover[c] & I`` is empty, and a point with a cover in all its
    histories is never maximal in it: the maxima are found among the
    members of ``I & model.branching`` by one cover test each.  The
    points of h1 - h2 outside that OR are the violations, named in
    sorted order straight from their mask.
    """
    violations: list[str] = []
    hs, up, cover, branching = (
        model.histories, model.up, model.cover, model.branching
    )
    preceded: dict[int, int] = {}
    for h1 in hs:
        for h2 in hs:
            if h1 is h2:
                continue
            common = h1.mask & h2.mask
            above = preceded.get(common)
            if above is None:
                above = 0
                for c in bit_indices(common & branching):
                    if not cover[c] & common:
                        above |= up[c]
                preceded[common] = above
            bad = h1.mask & ~h2.mask & ~above
            if bad:
                violations.extend(
                    f"no choice point below {e} for history pair "
                    f"({h1.top}, {h2.top})"
                    for e in model.names(bad)
                )
    status = "fail" if violations else "pass"
    return ValidationReport(
        "prior-choice",
        status,
        tuple(violations),
        (
            "finite chains have minima, so single points stand in for all "
            "chains in the difference of two histories",
        ),
    )


def check_infima_suprema(model: CausalModel) -> ValidationReport:
    """Report on infima and suprema of chains.

    The postulate asks that lower bounded chains have infima and upper
    bounded chains have suprema in every history containing them.  In a
    finite model every nonempty chain has a least and a greatest member:
    the least is its infimum, and the greatest lies in every history that
    contains the chain and is its supremum there.  So the postulate holds
    in every model, and the report is ``"pass"`` without a scan; ``model``
    is taken only to keep the signature of the other checks.
    """
    return ValidationReport(
        "infima-suprema",
        "pass",
        (),
        (
            "finite chains have a least and a greatest member, which are "
            "their infimum and their supremum in every history containing "
            "them; the postulate holds in every finite model",
        ),
    )


def check_density(model: CausalModel) -> ValidationReport:
    """Report on order density (between any two ordered points lies a third).

    No nontrivial finite order is dense, so any model with at least one
    ordered pair gets status ``"waived"`` together with a witness gap.  A
    model whose order relation is empty is vacuously dense and passes.
    The gaps are the cover pairs; the least one is the lowest cover of
    the first point that has one.
    """
    gaps = sum(c.bit_count() for c in model.cover)
    if not gaps:
        return ValidationReport(
            "density",
            "pass",
            (),
            ("order relation is empty; density holds vacuously",),
        )
    i, c = next((i, c) for i, c in enumerate(model.cover) if c)
    a, b = model.points[i], model.points[(c & -c).bit_length() - 1]
    return ValidationReport(
        "density",
        "waived",
        (f"no point strictly between {a} and {b}",),
        (
            f"finite models with a nonempty order are never dense; "
            f"{gaps} immediate gaps in total",
        ),
    )
