import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctlsim.ctls import (
    Chirality,
    CouplingSet,
    signed_couplings,
    step_unitaries,
    total_unitary,
)

from .conftest import bright_state

SQ2 = 1.0 / np.sqrt(2.0)

U_TOTAL_L = np.array([[1, 0, 0], [0, 0, -1j], [0, -1j, 0]])
U_TOTAL_R = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1]])


def overall_phase(couplings: CouplingSet, t: float = 0.0) -> float:
    """Loop phase arg(W12 * W23 * conj(W13)) at time ``t``, in [0, 2*pi)."""
    w12 = complex(couplings.drive_12(t))
    w23 = complex(couplings.drive_23(t))
    w13 = complex(couplings.drive_13(t))
    if w12 == 0 or w23 == 0 or w13 == 0:
        raise ValueError(f"loop phase undefined: an amplitude vanishes at t = {t}")
    return float(np.angle(w12 * w23 * np.conj(w13)) % (2.0 * np.pi))


def base_couplings(w12=1.0 + 0j, w23=1.0 + 0j, w13=1.0 + 0j) -> CouplingSet:
    return CouplingSet(lambda t: w12, lambda t: w23, lambda t: w13)


# step B's base drives; it does not drive (1,3)
STEP_B = CouplingSet(drive_12=lambda t: 1j * SQ2, drive_23=lambda t: SQ2)


nonzero_complex = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


class TestCouplingSet:
    def test_absent_drives_are_zero(self):
        times = np.linspace(0.0, 1.0, 5)
        pump = CouplingSet(drive_13=lambda t: 0.5)
        assert pump.drive_12(times) == pump.drive_23(times) == STEP_B.drive_13(times) == 0j

    @pytest.mark.parametrize("chirality", [Chirality.L, Chirality.R])
    def test_sign_rule_replaces_only_drive_13(self, chirality):
        signed = signed_couplings(STEP_B, chirality)
        assert (signed.drive_12, signed.drive_23) == (STEP_B.drive_12, STEP_B.drive_23)
        assert signed.drive_13 is not STEP_B.drive_13


class TestSignedCouplings:
    def test_right_handed_keeps_base(self):
        signed = signed_couplings(base_couplings(w13=0.8), Chirality.R)
        assert signed.drive_13(0.0) == 0.8

    def test_left_handed_flips_13(self):
        signed = signed_couplings(base_couplings(w13=0.8), Chirality.L)
        assert signed.drive_13(0.0) == -0.8
        assert signed.drive_12(0.0) == 1.0
        assert signed.drive_23(0.0) == 1.0

    def test_sign_rule_between_enantiomers(self):
        # W13 amplitudes of the two species are opposite; the others agree
        base = base_couplings(w12=0.3 + 0.1j, w23=-0.2j, w13=0.5 - 0.4j)
        left = signed_couplings(base, Chirality.L)
        right = signed_couplings(base, Chirality.R)
        assert left.drive_13(0.0) == -right.drive_13(0.0)
        assert left.drive_12(0.0) == right.drive_12(0.0)
        assert left.drive_23(0.0) == right.drive_23(0.0)


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
        u = step_unitaries(chirality)["ABC".index(step)]
        assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-14

    def test_step_b_chirality_independent(self):
        _, u_left, _ = step_unitaries(Chirality.L)
        _, u_right, _ = step_unitaries(Chirality.R)
        assert np.array_equal(u_left, u_right)

    def test_step_b_matrix(self):
        expected = np.array(
            [
                [0.5, SQ2, -0.5j],
                [-SQ2, 0.0, -1j * SQ2],
                [0.5j, -1j * SQ2, 0.5],
            ]
        )
        assert np.abs(step_unitaries(Chirality.L)[1] - expected).max() < 1e-15

    def test_quarter_pulse_matrices(self):
        # L sees the flipped (1,3) sign: +i offdiagonal in step A, -i in step C
        plus = np.array([[SQ2, 0, 1j * SQ2], [0, 1, 0], [1j * SQ2, 0, SQ2]])
        minus = plus.conj()
        left_a, _, left_c = step_unitaries(Chirality.L)
        right_a, _, right_c = step_unitaries(Chirality.R)
        assert np.abs(left_a - plus).max() < 1e-15
        assert np.abs(right_a - minus).max() < 1e-15
        assert np.abs(left_c - minus).max() < 1e-15
        assert np.abs(right_c - plus).max() < 1e-15


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
        u_a, u_b, u_c = step_unitaries(chirality)
        product = u_c @ u_b @ u_a
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
        d = bright_state()
        assert np.abs(np.vdot(d, d) - 1.0) < 1e-15
        assert d[1] == 0.0
        assert d == pytest.approx(np.array([1j * SQ2, 0.0, SQ2]))
        # the signed step-B drives couple |2> to d: H|2> = W12|1> + conj(W23)|3>
        step_b = signed_couplings(STEP_B, chirality)
        coupled = np.array([step_b.drive_12(0.0), 0.0, np.conj(step_b.drive_23(0.0))])
        assert np.abs(coupled - d).max() < 1e-15

    def test_same_for_both_handednesses(self):
        # step B does not drive (1,3), so the sign rule leaves its drives alone
        left = signed_couplings(STEP_B, Chirality.L)
        right = signed_couplings(STEP_B, Chirality.R)
        for name in ("drive_12", "drive_23", "drive_13"):
            assert getattr(left, name)(0.0) == getattr(right, name)(0.0)
