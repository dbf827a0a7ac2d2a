"""State, observables, probabilities, and the rule comparison.

The oracle is exact, so its values are compared with ``==``.  The float
matrix implementation in ``tests/oracles.py`` cross-checks it within
``EIGEN_TOLERANCE``; those tests skip when numpy is not installed.
"""

import itertools
import random
from fractions import Fraction

import pytest

from bstghz.errors import NotEigenstate
from bstghz.ghz import ALL_CONTEXTS, OMEGA_CONSTRAINTS, context_vectors
from bstghz.quantum import (
    ObservableSpec,
    QubitState,
    _apply,
    _born,
    commute,
    compare_with_stipulation,
    context_distribution,
    eigenvalue_for,
    ghz_state,
    omega_eigencheck,
    outcome_probability,
)

from .oracles import (
    EIGEN_TOLERANCE,
    float_commute,
    float_eigenvalue,
    float_ghz_state,
    float_probability,
    float_product,
    pauli_matrix,
)

OMEGA_CONTEXTS = tuple(ctx for ctx, _ in OMEGA_CONSTRAINTS)
OTHER_CONTEXTS = tuple(
    ctx for ctx in ALL_CONTEXTS if ctx not in OMEGA_CONTEXTS
)
EXPECTED_EIGENVALUES = {
    ("x", "y", "y"): 1,
    ("y", "x", "y"): 1,
    ("y", "y", "x"): 1,
    ("x", "x", "x"): -1,
}
ZERO = (0, 0)


def reference_probability(context, signs):
    """Closed form: p = |1 - s1 s2 s3 (-i)^(#y)| ** 2 / 16, exactly."""
    ny = sum(1 for a in context if a == "y")
    re, im = ((1, 0), (0, -1), (-1, 0), (0, 1))[ny % 4]
    sign = signs[0] * signs[1] * signs[2]
    return Fraction((1 - sign * re) ** 2 + (sign * im) ** 2, 16)


def basis_state(b):
    return QubitState(
        amplitudes=tuple((1, 0) if i == b else ZERO for i in range(8)),
        sqrt2_power=0,
    )


class TestState:
    def test_amplitudes(self):
        psi = ghz_state()
        assert psi.amplitudes == ((1, 0),) + (ZERO,) * 6 + ((-1, 0),)
        assert psi.sqrt2_power == 1
        norm = sum(re * re + im * im for re, im in psi.amplitudes)
        assert Fraction(norm, 2**psi.sqrt2_power) == 1


class TestObservables:
    def test_matrix_shape_hermitian_involutive(self):
        np = pytest.importorskip("numpy")
        for ctx in ALL_CONTEXTS:
            m = pauli_matrix(ctx)
            assert m.shape == (8, 8)
            assert np.allclose(m, m.conj().T)
            assert np.allclose(m @ m, np.eye(8))

    def test_action_matches_the_matrix_columns(self):
        pytest.importorskip("numpy")
        for ctx in ALL_CONTEXTS:
            m = pauli_matrix(ctx)
            for b in range(8):
                image = _apply(ctx, basis_state(b).amplitudes)
                got = [complex(re, im) for re, im in image]
                assert got == list(m[:, b])

    def test_action_is_involutive(self):
        for ctx in ALL_CONTEXTS:
            for b in range(8):
                amps = basis_state(b).amplitudes
                assert tuple(_apply(ctx, _apply(ctx, amps))) == amps

    def test_omega_product_is_exactly_minus_identity(self):
        for b in range(8):
            image = basis_state(b).amplitudes
            for ctx in reversed(OMEGA_CONTEXTS):
                image = tuple(_apply(ctx, image))
            minus = tuple((-1, 0) if i == b else ZERO for i in range(8))
            assert image == minus

    def test_bad_axes_rejected(self):
        with pytest.raises(ValueError):
            ObservableSpec(axes=("x", "z", "y"))

    def test_eigenvalues_on_the_state(self):
        psi = ghz_state()
        for ctx, lam in EXPECTED_EIGENVALUES.items():
            got = eigenvalue_for(ObservableSpec(axes=ctx), psi)
            assert got == lam and type(got) is int

    def test_not_an_eigenstate_raises(self):
        xxx = ObservableSpec(axes=("x", "x", "x"))
        with pytest.raises(NotEigenstate):
            eigenvalue_for(xxx, basis_state(0))

    @pytest.mark.parametrize("size", [0, 2, 7, 9, 16])
    def test_state_of_the_wrong_size_rejected(self, size):
        state = QubitState(amplitudes=((1, 0),) * size, sqrt2_power=0)
        with pytest.raises(ValueError, match=f"state has {size} amplitudes"):
            eigenvalue_for(ObservableSpec(axes=("x", "x", "x")), state)

    def test_zero_state_rejected(self):
        state = QubitState(amplitudes=(ZERO,) * 8, sqrt2_power=0)
        with pytest.raises(ValueError, match="no nonzero amplitude"):
            eigenvalue_for(ObservableSpec(axes=("x", "x", "x")), state)


class TestOmegaCheck:
    def test_eigenvalues_product_and_commutation(self):
        res = omega_eigencheck()
        assert [v for _, v in res.operators] == [1, 1, 1, -1]
        assert res.product_eigenvalue == -1
        assert res.pairwise_commuting

    def test_four_fold_operator_product_is_minus_identity(self):
        np = pytest.importorskip("numpy")
        product = float_product(OMEGA_CONTEXTS)
        assert np.allclose(product, -np.eye(8), atol=1e-12)

    def test_commutation_is_the_parity_of_mismatches(self):
        specs = [ObservableSpec(axes=ctx) for ctx in ALL_CONTEXTS]
        assert not commute(specs[0], specs[1])  # xxx, xxy
        assert commute(specs[0], specs[3])  # xxx, xyy
        for a, b in itertools.combinations(OMEGA_CONTEXTS, 2):
            assert commute(ObservableSpec(axes=a), ObservableSpec(axes=b))


class TestProbabilities:
    def test_closed_form_agreement_all_64(self):
        for ctx in ALL_CONTEXTS:
            for v in context_vectors(ctx):
                got = outcome_probability(ctx, v.signs)
                assert type(got) is Fraction
                assert got == reference_probability(ctx, v.signs), (
                    ctx,
                    v.signs,
                )

    def test_constrained_contexts_are_quarter_or_zero(self):
        for ctx in OMEGA_CONTEXTS:
            values = list(context_distribution(ctx).values())
            assert sorted(values) == [0] * 4 + [Fraction(1, 4)] * 4

    def test_other_contexts_are_uniform(self):
        for ctx in OTHER_CONTEXTS:
            for p in context_distribution(ctx).values():
                assert p == Fraction(1, 8)

    def test_distributions_normalize(self):
        for ctx in ALL_CONTEXTS:
            assert sum(context_distribution(ctx).values()) == Fraction(1)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="bad context"):
            outcome_probability(("x", "z", "x"), (1, 1, 1))
        with pytest.raises(ValueError, match="bad signs"):
            outcome_probability(("x", "x", "x"), (1, 0, 1))


class TestMatrixOracle:
    """The exact oracle agrees with kron/vdot floats within tolerance."""

    def test_all_64_probabilities(self):
        pytest.importorskip("numpy")
        for ctx in ALL_CONTEXTS:
            for v in context_vectors(ctx):
                exact = outcome_probability(ctx, v.signs)
                assert abs(exact - float_probability(ctx, v.signs)) <= (
                    EIGEN_TOLERANCE
                ), (ctx, v.signs)

    def test_probabilities_on_seeded_states(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(20260)
        for _ in range(20):
            amps = tuple(
                (rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(8)
            )
            state = QubitState(amps, sqrt2_power=rng.randint(0, 4))
            psi = np.array([complex(re, im) for re, im in amps])
            psi /= np.sqrt(2) ** state.sqrt2_power
            for ctx in ALL_CONTEXTS:
                for v in context_vectors(ctx):
                    exact = _born(ctx, v.signs, state)
                    want = float_probability(ctx, v.signs, psi)
                    assert abs(exact - want) <= EIGEN_TOLERANCE, (
                        amps,
                        ctx,
                        v.signs,
                    )

    def test_eigenvalues_and_product(self):
        pytest.importorskip("numpy")
        psi = float_ghz_state()
        res = omega_eigencheck()
        for spec, exact in res.operators:
            lam = float_eigenvalue(pauli_matrix(spec.axes), psi)
            assert abs(exact - lam) <= EIGEN_TOLERANCE, spec.label()
        lam = float_eigenvalue(float_product(OMEGA_CONTEXTS), psi)
        assert abs(res.product_eigenvalue - lam) <= EIGEN_TOLERANCE

    def test_pairwise_commutation(self):
        pytest.importorskip("numpy")
        for a, b in itertools.combinations(ALL_CONTEXTS, 2):
            exact = commute(ObservableSpec(axes=a), ObservableSpec(axes=b))
            assert exact == float_commute(a, b), (a, b)


class TestStipulationComparison:
    def test_disagreement_layout(self):
        rep = compare_with_stipulation()
        assert len(rep.disagreements) == 16
        for ctx in OMEGA_CONTEXTS:
            assert rep.count_for(ctx) == 0
        for ctx in OTHER_CONTEXTS:
            assert rep.count_for(ctx) == 4

    def test_disagreements_are_rule_rejections_of_live_outcomes(self):
        rep = compare_with_stipulation()
        for d in rep.disagreements:
            assert d.stipulated_consistent is False
            assert d.probability == Fraction(1, 8)
