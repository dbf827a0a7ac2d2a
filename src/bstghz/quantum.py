"""Independent quantum check of the stipulated parity rule, computed exactly.

Everything here is computed from the three-qubit state
(|000> - |111>)/sqrt(2) and the Pauli strings; the parity rule enters
only at the comparison step.  Conventions: the computational basis is
ordered |000> .. |111> with the first station's qubit most significant,
and sign eigenstates are |+-x> = (|0> +- |1>)/sqrt(2) and
|+-y> = (|0> +- i|1>)/sqrt(2).

No matrix is formed and no float enters.  A state is a tuple of
Gaussian-integer amplitudes (re, im) over a common sqrt(2)**k.  A Pauli
string of x and y acts on a basis state |b> by flipping every bit, with
a phase: each y at qubit j contributes i * (-1)**b_j.  Eigenvalues are
read off by comparing amplitudes exactly, two strings commute iff they
differ at an even number of positions, and a Born probability is
|<v|psi>|**2 as a Fraction, in O(n * 2**n) integer work.  The results
are exactly +-1 and exactly 0, 1/4 or 1/8 (Mermin, Am. J. Phys. 58, 731
(1990)).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .errors import NotEigenstate
from .ghz import (
    ALL_CONTEXTS,
    AXES,
    OMEGA_CONSTRAINTS,
    STATIONS,
    Context,
    GhzVector,
    SignVector,
    context_label,
    context_vectors,
    parity_consistent,
)
from .model import _Record

_QUBITS = len(STATIONS)
Gaussian = tuple[int, int]  # re + i * im


def _times_i(z: Gaussian, power: int) -> Gaussian:
    """z * i**power."""
    re, im = z
    return ((re, im), (-im, re), (-re, -im), (im, -re))[power % 4]


class QubitState(_Record):
    """Amplitude of |b> is amplitudes[b] / sqrt(2)**sqrt2_power."""

    __slots__ = ("amplitudes", "sqrt2_power")


def ghz_state() -> QubitState:
    """The entangled three-qubit state (|000> - |111>)/sqrt(2)."""
    zero = (0, 0)
    return QubitState(
        amplitudes=((1, 0),) + (zero,) * 6 + ((-1, 0),), sqrt2_power=1
    )


class ObservableSpec(_Record):
    """A tensor product of one Pauli (x or y) per station."""

    __slots__ = ("axes",)

    def __init__(self, axes: Context) -> None:
        if len(axes) != _QUBITS or any(a not in AXES for a in axes):
            raise ValueError(f"bad observable axes: {axes!r}")
        object.__setattr__(self, "axes", axes)

    def label(self) -> str:
        return context_label(self.axes)


def _apply(axes: Context, amplitudes: Sequence[Gaussian]) -> list[Gaussian]:
    """The Pauli string's action: |b> -> phase(b) |b xor 1..1>."""
    n = len(axes)
    flip = (1 << n) - 1
    ys = sum(1 << (n - 1 - j) for j, a in enumerate(axes) if a == "y")
    n_y = bin(ys).count("1")
    out: list[Gaussian] = [(0, 0)] * len(amplitudes)
    for b, z in enumerate(amplitudes):
        out[b ^ flip] = _times_i(z, n_y + 2 * bin(b & ys).count("1"))
    return out


def _eigenvalue(
    image: Sequence[Gaussian], state: QubitState, name: str
) -> int:
    """The real lam with image == lam * state, or NotEigenstate."""
    pairs = list(zip(image, state.amplitudes))
    for power, lam in ((0, 1), (2, -1)):
        if all(w == _times_i(z, power) for w, z in pairs):
            return lam
    raise NotEigenstate(f"state is not an eigenstate of {name}")


def _check_state(state: QubitState, n: int) -> None:
    amps = state.amplitudes
    if len(amps) != 1 << n:
        raise ValueError(
            f"state has {len(amps)} amplitudes; {n} qubits need {1 << n}"
        )
    if not any(z != (0, 0) for z in amps):
        raise ValueError("state has no nonzero amplitude")


def eigenvalue_for(spec: ObservableSpec, state: QubitState) -> int:
    """Eigenvalue (exactly +1 or -1) of the observable, or NotEigenstate."""
    _check_state(state, len(spec.axes))
    image = _apply(spec.axes, state.amplitudes)
    return _eigenvalue(image, state, spec.label())


def commute(a: ObservableSpec, b: ObservableSpec) -> bool:
    """Pauli strings anticommute at each position where x meets y."""
    return sum(p != q for p, q in zip(a.axes, b.axes)) % 2 == 0


class EigencheckResult(_Record):
    __slots__ = ("operators", "product_eigenvalue", "pairwise_commuting")


def omega_eigencheck() -> EigencheckResult:
    """Eigenvalues of the four product observables and of their product.

    Also verifies the four observables pairwise commute, so the joint
    eigenvalue bookkeeping makes sense.
    """
    psi = ghz_state()
    specs = [ObservableSpec(axes=ctx) for ctx, _ in OMEGA_CONSTRAINTS]
    operators = tuple((s, eigenvalue_for(s, psi)) for s in specs)
    image: Sequence[Gaussian] = psi.amplitudes
    for s in reversed(specs):  # the product's rightmost factor acts first
        image = _apply(s.axes, image)
    product = _eigenvalue(image, psi, "the product observable")
    commuting = all(
        commute(a, b) for i, a in enumerate(specs) for b in specs[i + 1 :]
    )
    return EigencheckResult(
        operators=operators,
        product_eigenvalue=product,
        pairwise_commuting=commuting,
    )


def _born(context: Context, signs: SignVector, state: QubitState) -> Fraction:
    """|<v|psi>|**2 for the product sign eigenstate v of the context.

    sqrt(2)**n * v_b is the Gaussian unit prod over b_j = 1 of s_j c_j,
    with c = 1 for x and i for y, so conj(v_b) is i**p_b with p_b summed
    bit by bit: 0 for x, 3 for y (-i), plus 2 for a minus sign.
    """
    n = len(context)
    steps = [
        (3 if a == "y" else 0) + (2 if s < 0 else 0)
        for a, s in zip(context, signs)
    ]
    re = im = 0
    for b, z in enumerate(state.amplitudes):
        power = sum(steps[j] for j in range(n) if b >> (n - 1 - j) & 1)
        dre, dim = _times_i(z, power)
        re += dre
        im += dim
    return Fraction(re * re + im * im, 2 ** (n + state.sqrt2_power))


@lru_cache(maxsize=None)
def outcome_probability(context: Context, signs: SignVector) -> Fraction:
    """Born probability of the joint sign outcome under the axis context."""
    GhzVector(context, signs)  # raises "bad context" or "bad signs"
    return _born(context, signs, ghz_state())


def context_distribution(context: Context) -> dict[SignVector, Fraction]:
    """Probabilities of all eight joint outcomes of one context."""
    return {
        v.signs: outcome_probability(context, v.signs)
        for v in context_vectors(context)
    }


class Discrepancy(_Record):
    """One joint outcome where rule and state disagree about possibility."""

    __slots__ = ("vector", "stipulated_consistent", "probability")


class DiscrepancyReport(_Record):
    __slots__ = ("disagreements",)

    def count_for(self, context: Context) -> int:
        return sum(
            1 for d in self.disagreements if d.vector.context == context
        )


def compare_with_stipulation() -> DiscrepancyReport:
    """Compare parity consistency with positive probability.

    A disagreement is a joint outcome the rule calls consistent but the
    state gives probability 0, or vice versa.  The probabilities are
    exact, so no threshold enters.  The four product-constrained
    contexts agree exactly; the other four contexts each disagree on
    four outcomes of probability 1/8, which is the price of stipulating
    one parity rule across all contexts.
    """
    disagreements: list[Discrepancy] = []
    for ctx in ALL_CONTEXTS:
        for v in context_vectors(ctx):
            p = outcome_probability(ctx, v.signs)
            stip = parity_consistent(v)
            if stip != (p > 0):
                disagreements.append(
                    Discrepancy(
                        vector=v, stipulated_consistent=stip, probability=p
                    )
                )
    return DiscrepancyReport(disagreements=tuple(disagreements))
