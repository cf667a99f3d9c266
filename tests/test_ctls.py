import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctlsim.ctls import (
    Chirality,
    CouplingSet,
    DriveField,
    analytic_step_unitary,
    bright_state,
    constant_drive,
    overall_phase,
    signed_couplings,
    total_unitary,
    zero_drive,
)

SQ2 = 1.0 / np.sqrt(2.0)

U_TOTAL_L = np.array([[1, 0, 0], [0, 0, -1j], [0, -1j, 0]])
U_TOTAL_R = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1]])


def base_couplings(w12=1.0 + 0j, w23=1.0 + 0j, w13=1.0 + 0j) -> CouplingSet:
    return CouplingSet(
        drive_12=constant_drive((1, 2), w12),
        drive_23=constant_drive((2, 3), w23),
        drive_13=constant_drive((1, 3), w13),
    )


nonzero_complex = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


class TestSignedCouplings:
    def test_right_handed_keeps_base(self):
        signed = signed_couplings(base_couplings(w13=0.8), Chirality.R)
        assert signed.chirality is Chirality.R
        assert signed.drive_13.rabi(0.0) == 0.8

    def test_left_handed_flips_13(self):
        signed = signed_couplings(base_couplings(w13=0.8), Chirality.L)
        assert signed.drive_13.rabi(0.0) == -0.8
        assert signed.drive_12.rabi(0.0) == 1.0
        assert signed.drive_23.rabi(0.0) == 1.0

    def test_sign_rule_between_enantiomers(self):
        # W13 amplitudes of the two species are opposite; the others agree
        base = base_couplings(w12=0.3 + 0.1j, w23=-0.2j, w13=0.5 - 0.4j)
        left = signed_couplings(base, Chirality.L)
        right = signed_couplings(base, Chirality.R)
        assert left.drive_13.rabi(0.0) == -right.drive_13.rabi(0.0)
        assert left.drive_12.rabi(0.0) == right.drive_12.rabi(0.0)
        assert left.drive_23.rabi(0.0) == right.drive_23.rabi(0.0)

    def test_already_signed_rejected(self):
        signed = signed_couplings(base_couplings(), Chirality.L)
        with pytest.raises(ValueError):
            signed_couplings(signed, Chirality.R)

    def test_drive_on_wrong_transition_rejected(self):
        with pytest.raises(ValueError, match=r"drive_13 must drive transition \(1, 3\)"):
            CouplingSet(zero_drive((1, 2)), zero_drive((2, 3)), zero_drive((1, 2)))

    def test_bad_transition_rejected(self):
        with pytest.raises(ValueError):
            DriveField(transition=(3, 1), rabi=lambda t: 1.0)


class TestOverallPhase:
    def test_positive_amplitudes(self):
        # all-positive base belongs to the right-handed species: phase 0
        assert overall_phase(signed_couplings(base_couplings(), Chirality.R)) == 0.0

    def test_flipped_13_gives_pi(self):
        assert overall_phase(base_couplings(w13=-1.0)) == pytest.approx(np.pi)

    def test_step_b_prefactor_quarter(self):
        # W12 = i|W12| with real positive W23, W13
        couplings = base_couplings(w12=0.7j, w23=0.7, w13=0.9)
        assert overall_phase(couplings) == pytest.approx(np.pi / 2.0)

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ValueError):
            overall_phase(base_couplings(w12=0.0))

    @given(nonzero_complex, nonzero_complex, nonzero_complex)
    @settings(deadline=None)
    def test_enantiomers_differ_by_pi(self, w12, w23, w13):
        base = base_couplings(w12, w23, w13)
        phi_left = overall_phase(signed_couplings(base, Chirality.L))
        phi_right = overall_phase(signed_couplings(base, Chirality.R))
        difference = (phi_right - phi_left) % (2.0 * np.pi)
        assert difference == pytest.approx(np.pi, abs=1e-9)


class TestAnalyticStepUnitaries:
    @pytest.mark.parametrize("step", ["A", "B", "C"])
    @pytest.mark.parametrize("chirality", [Chirality.L, Chirality.R])
    def test_unitarity(self, step, chirality):
        u = analytic_step_unitary(step, chirality)
        assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-14

    def test_step_b_chirality_independent(self):
        u_left = analytic_step_unitary("B", Chirality.L)
        u_right = analytic_step_unitary("B", Chirality.R)
        assert np.array_equal(u_left, u_right)

    def test_step_b_matrix(self):
        expected = np.array(
            [
                [0.5, SQ2, -0.5j],
                [-SQ2, 0.0, -1j * SQ2],
                [0.5j, -1j * SQ2, 0.5],
            ]
        )
        assert np.abs(analytic_step_unitary("B", Chirality.L) - expected).max() < 1e-15

    def test_quarter_pulse_matrices(self):
        # L sees the flipped (1,3) sign: +i offdiagonal in step A, -i in step C
        plus = np.array([[SQ2, 0, 1j * SQ2], [0, 1, 0], [1j * SQ2, 0, SQ2]])
        minus = plus.conj()
        assert np.abs(analytic_step_unitary("A", Chirality.L) - plus).max() < 1e-15
        assert np.abs(analytic_step_unitary("A", Chirality.R) - minus).max() < 1e-15
        assert np.abs(analytic_step_unitary("C", Chirality.L) - minus).max() < 1e-15
        assert np.abs(analytic_step_unitary("C", Chirality.R) - plus).max() < 1e-15

    def test_unknown_step_rejected(self):
        with pytest.raises(ValueError):
            analytic_step_unitary("D", Chirality.L)


class TestTotalUnitary:
    def test_left_matrix(self):
        assert np.abs(total_unitary(Chirality.L) - U_TOTAL_L).max() == 0.0

    def test_right_matrix(self):
        assert np.abs(total_unitary(Chirality.R) - U_TOTAL_R).max() == 0.0

    @pytest.mark.parametrize("chirality", [Chirality.L, Chirality.R])
    def test_unitarity(self, chirality):
        u = total_unitary(chirality)
        assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-14

    @pytest.mark.parametrize("chirality", [Chirality.L, Chirality.R])
    def test_equals_step_product(self, chirality):
        product = (
            analytic_step_unitary("C", chirality)
            @ analytic_step_unitary("B", chirality)
            @ analytic_step_unitary("A", chirality)
        )
        assert np.abs(product - total_unitary(chirality)).max() < 1e-14

    def test_population_exchanges(self):
        u_left = total_unitary(Chirality.L)
        # left: |2> -> -i|3>, |3> -> -i|2>, |1> untouched
        assert np.allclose(u_left @ [0, 1, 0], [0, 0, -1j], atol=1e-15)
        assert np.allclose(u_left @ [0, 0, 1], [0, -1j, 0], atol=1e-15)
        assert np.allclose(u_left @ [1, 0, 0], [1, 0, 0], atol=1e-15)
        u_right = total_unitary(Chirality.R)
        # right: |1> -> -|2>, |2> -> |1|, |3> untouched
        assert np.allclose(u_right @ [1, 0, 0], [0, -1, 0], atol=1e-15)
        assert np.allclose(u_right @ [0, 1, 0], [1, 0, 0], atol=1e-15)
        assert np.allclose(u_right @ [0, 0, 1], [0, 0, 1], atol=1e-15)


class TestBrightState:
    @pytest.mark.parametrize("chirality", [Chirality.L, Chirality.R])
    def test_form_and_norm(self, chirality):
        d = bright_state(chirality)
        assert np.abs(np.vdot(d, d) - 1.0) < 1e-15
        assert d[1] == 0.0
        assert d == pytest.approx(np.array([1j * SQ2, 0.0, SQ2]))

    def test_same_for_both_handednesses(self):
        assert np.array_equal(bright_state(Chirality.L), bright_state(Chirality.R))
