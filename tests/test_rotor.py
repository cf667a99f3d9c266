import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctlsim import rotor
from ctlsim.rotor import (
    RotationalConstants,
    RotorLevel,
    block_energies,
    rotor_levels,
    rotor_spectrum,
)
from ctlsim.thermal import rotational_partition

from .conftest import PROPANEDIOL


def constants_strategy(min_ghz=0.05, max_ghz=50.0):
    """Random valid A >= B >= C > 0 triples."""
    positive = st.floats(min_value=min_ghz, max_value=max_ghz, allow_nan=False)
    return st.tuples(positive, positive, positive).map(
        lambda t: RotationalConstants(*sorted(t, reverse=True))
    )


def generic_block(j, axis_const, trans1, trans2):
    """Independent rotor-block oracle with a free choice of quantization axis.

    ``axis_const`` multiplies k^2 on the diagonal; the two transverse
    constants enter symmetrically up to the sign of the k <-> k+-2 coupling,
    which does not affect the spectrum.
    """
    jj = j * (j + 1)
    ks = np.arange(-j, j + 1)
    h = np.diag(0.5 * (trans1 + trans2) * (jj - ks**2) + axis_const * ks**2.0)
    for i, k in enumerate(ks[:-2]):
        v = (
            0.25
            * (trans1 - trans2)
            * np.sqrt(jj - k * (k + 1))
            * np.sqrt(jj - (k + 1) * (k + 2))
        )
        h[i, i + 2] = v
        h[i + 2, i] = v
    return h


class TestRotationalConstants:
    def test_valid(self):
        c = RotationalConstants(3.0, 2.0, 1.0)
        assert (c.A, c.B, c.C) == (3.0, 2.0, 1.0)

    @pytest.mark.parametrize(
        "a, b, c",
        [(1.0, 2.0, 3.0), (3.0, 1.0, 2.0), (3.0, 2.0, 0.0), (3.0, 2.0, -1.0)],
    )
    def test_rejects_bad_ordering(self, a, b, c):
        with pytest.raises(ValueError):
            RotationalConstants(a, b, c)


class TestGenericBlock:
    def test_j1_entries(self, propanediol):
        a, b, c = propanediol.A, propanediol.B, propanediol.C
        block = generic_block(1, a, b, c)
        assert block[0, 0] == pytest.approx(0.5 * (b + c) + a, abs=1e-12)
        assert block[1, 1] == pytest.approx(b + c, abs=1e-12)
        assert block[2, 2] == pytest.approx(0.5 * (b + c) + a, abs=1e-12)
        assert block[0, 2] == pytest.approx(0.5 * (b - c), abs=1e-12)
        assert block[2, 0] == block[0, 2]
        assert block[0, 1] == block[1, 0] == block[1, 2] == block[2, 1] == 0.0


class TestBlockEnergies:
    def test_j0_is_zero(self, propanediol):
        assert block_energies(0, propanediol).tolist() == [0.0]

    @pytest.mark.parametrize("j", range(6))
    def test_trace_identity(self, j, propanediol):
        # trace = (A+B+C) J(J+1)(2J+1)/3, checked against the eigenvalue sum
        total = propanediol.A + propanediol.B + propanediol.C
        assert block_energies(j, propanediol).sum() == pytest.approx(
            total * j * (j + 1) * (2 * j + 1) / 3.0, rel=1e-12
        )

    def test_negative_j_rejected(self, propanediol):
        for levels in (block_energies, rotor_levels):
            with pytest.raises(ValueError, match="^J must be non-negative, got -1$"):
                levels(-1, propanediol)

    @given(constants_strategy(), st.integers(min_value=0, max_value=6))
    @settings(deadline=None, max_examples=50)
    def test_spectrum_representation_independent(self, constants, j):
        # same eigenvalues whichever inertial axis is the quantization axis
        a, b, c = constants.A, constants.B, constants.C
        energies = block_energies(j, constants)
        for axis, t1, t2 in ((a, b, c), (b, c, a), (c, a, b)):
            other = np.linalg.eigvalsh(generic_block(j, axis, t1, t2))
            assert np.allclose(np.sort(other), energies, atol=1e-9)

    @pytest.mark.parametrize("j", [0, 1, 2, 3, 4, 7, 30, 120, 200])
    @given(constants=constants_strategy(1e-3, 1e3))
    @example(constants=RotationalConstants(10.0, 4.0, 4.0))  # B = C, prolate top
    @example(constants=RotationalConstants(5.0, 5.0, 2.0))  # A = B, oblate top
    @example(constants=RotationalConstants(3.0, 3.0, 3.0))  # A = B = C, spherical top
    @settings(deadline=None, max_examples=15)
    def test_wang_blocks_match_dense_oracle(self, j, constants):
        energies = block_energies(j, constants)
        dense = generic_block(j, constants.A, constants.B, constants.C)
        reference = np.sort(np.linalg.eigvalsh(dense))
        assert energies.shape == (2 * j + 1,)
        assert np.all(np.diff(energies) >= 0.0)
        assert not energies.flags.writeable
        assert np.max(np.abs(energies - reference)) <= 1e-12 * max(1.0, reference[-1])

    def test_no_block_larger_than_a_wang_block_is_diagonalised(self, monkeypatch):
        # J = 188 is the last block the partition sum needs at 300 K
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(matrix, **kwargs):
            shapes.append(matrix.shape)
            return eigvalsh(matrix, **kwargs)

        monkeypatch.setattr(rotor.np.linalg, "eigvalsh", recording_eigvalsh)
        block_energies.cache_clear()
        block_energies(188, PROPANEDIOL)
        assert max(n for n, _ in shapes) <= 188 // 2 + 1
        assert sum(n for n, _ in shapes) == 2 * 188 + 1

    def test_cold_block_never_forms_the_dense_block(self):
        j = 600
        dense_bytes = (2 * j + 1) ** 2 * np.dtype(float).itemsize
        block_energies.cache_clear()
        tracemalloc.start()
        try:
            block_energies(j, PROPANEDIOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 2

    def test_cache_holds_one_molecules_walk(self):
        # 30 fresh molecules walk J = 0..~60 at 30 K: more blocks than fit
        start = block_energies.cache_info().misses
        for n in range(30):
            constants = RotationalConstants(PROPANEDIOL.A + n * 1e-3, PROPANEDIOL.B, PROPANEDIOL.C)
            rotational_partition(constants, 30.0)
        info = block_energies.cache_info()
        assert info.misses - start > rotor.J_MAX + 1
        assert info.currsize <= rotor.J_MAX + 1
        rotational_partition(constants, 30.0)
        assert block_energies.cache_info().misses == info.misses


class TestRotorLevels:
    def test_negative_j_rejected(self):
        with pytest.raises(ValueError, match="^J must be non-negative, got -1$"):
            RotorLevel(j=-1, tau=0, energy_ghz=0.0)

    def test_j0(self, propanediol):
        levels = rotor_levels(0, propanediol)
        assert len(levels) == 1
        assert levels[0].tau == 0
        assert levels[0].energy_ghz == 0.0
        assert levels[0].j == 0

    def test_j1_propanediol(self, propanediol):
        # closed forms B+C, A+C, A+B
        levels = rotor_levels(1, propanediol)
        assert [lv.tau for lv in levels] == [-1, 0, 1]
        assert [lv.energy_ghz for lv in levels] == pytest.approx(
            [6.4241, 11.3131, 12.1598], abs=1e-9
        )
        assert all(lv.j == 1 for lv in levels)

    @given(constants_strategy())
    @settings(deadline=None)
    def test_j1_closed_forms(self, constants):
        a, b, c = constants.A, constants.B, constants.C
        energies = [lv.energy_ghz for lv in rotor_levels(1, constants)]
        assert energies == pytest.approx([b + c, a + c, a + b], rel=1e-12, abs=1e-12)

    def test_symmetric_top_limit(self):
        # B = C: energies 2B, A+B, A+B with a degenerate top pair
        constants = RotationalConstants(A=10.0, B=4.0, C=4.0)
        energies = [lv.energy_ghz for lv in rotor_levels(1, constants)]
        assert energies == pytest.approx([8.0, 14.0, 14.0], abs=1e-10)

    def test_j2_closed_forms(self, propanediol):
        # 4A+B+C, A+4B+C, A+B+4C and 2(A+B+C) +- 2 sqrt((B-C)^2 + (A-B)(A-C))
        energies = [lv.energy_ghz for lv in rotor_levels(2, propanediol)]
        expected = [
            19.17156514820961,
            23.3146,
            25.8547,
            40.521699999999996,
            40.622434851790395,
        ]
        assert energies == pytest.approx(expected, abs=1e-9)

    @given(constants_strategy(), st.integers(min_value=0, max_value=6))
    @settings(deadline=None, max_examples=50)
    def test_sorted_and_nonnegative(self, constants, j):
        energies = [lv.energy_ghz for lv in rotor_levels(j, constants)]
        assert all(e >= -1e-12 for e in energies)
        assert energies == sorted(energies)


class TestRotorSpectrum:
    @pytest.mark.parametrize("j_max, count", [(0, 1), (1, 4), (2, 9), (5, 36)])
    def test_level_counts(self, j_max, count, propanediol):
        j, tau, energy = rotor_spectrum(propanediol, j_max)
        assert len(j) == len(tau) == len(energy) == count == (j_max + 1) ** 2
        assert j.max() == j_max

    def test_tau_labels_complete(self, propanediol):
        j, tau, _ = rotor_spectrum(propanediol, 3)
        for n in range(4):
            assert tau[j == n].tolist() == list(range(-n, n + 1))

    def test_negative_jmax_rejected(self, propanediol):
        with pytest.raises(ValueError):
            rotor_spectrum(propanediol, -1)

    @given(constants_strategy(1e-3, 1e3), st.integers(min_value=0, max_value=30))
    @example(RotationalConstants(10.0, 2.0, 2.0), 30)  # prolate symmetric top
    @example(RotationalConstants(10.0, 10.0, 2.0), 30)  # oblate symmetric top
    @example(RotationalConstants(1e3, 1e-3, 1e-3), 30)
    @settings(deadline=None, max_examples=50)
    def test_columns_are_the_levels_of_each_block(self, constants, j_max):
        j, tau, energy = rotor_spectrum(constants, j_max)
        assert j.dtype.kind == tau.dtype.kind == "i"
        assert list(zip(j.tolist(), tau.tolist(), energy.tolist())) == [
            (lv.j, lv.tau, lv.energy_ghz)
            for n in range(j_max + 1)
            for lv in rotor_levels(n, constants)
        ]


def test_j1_example_matches_dense_diagonalization():
    # dense 3x3 eigensolve as the cross-check for the frozen values
    block = generic_block(1, PROPANEDIOL.A, PROPANEDIOL.B, PROPANEDIOL.C)
    assert np.linalg.eigvalsh(block) == pytest.approx(
        [6.4241, 11.3131, 12.1598], abs=1e-9
    )
