import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctlsim.rotor import RotationalConstants, RotorLevel, rotor_levels
from ctlsim.thermal import (
    K_PER_GHZ,
    ConvergenceError,
    RoVibLevel,
    Temperatures,
    VibrationalMode,
    ctls_populations,
    global_proportion,
    loop_populations,
    rotational_partition,
    vibrational_partition,
    yield_eta,
)

from .conftest import OH_STRETCH, PROPANEDIOL


def bare_level(index: int, rot_ghz: float, vib_thz: float = 0.0) -> RoVibLevel:
    """Standalone level with synthetic rotational energy, for unit tests."""
    vib = 1 if vib_thz > 0 else 0
    return RoVibLevel(
        vib_quantum=vib,
        vib_energy_thz=vib_thz,
        rot=RotorLevel(j=1, tau=index - 2, energy_ghz=rot_ghz),
    )


def test_kelvin_per_gigahertz_constant():
    # h/kB * 1e9 from the exact SI values
    assert K_PER_GHZ == pytest.approx(0.04799243073366221, abs=1e-15)


class TestCtlsPopulations:
    def test_identical_energies_equipartition(self):
        levels = [bare_level(i, 5.0) for i in range(1, 4)]
        p = ctls_populations(levels, Temperatures(10.0, 300.0))
        assert p == pytest.approx([1 / 3] * 3, abs=1e-14)

    def test_zero_temperature_ground_state(self):
        levels = [bare_level(1, 0.0), bare_level(2, 5.0), bare_level(3, 9.0)]
        p = ctls_populations(levels, Temperatures(0.0, 0.0))
        assert p == pytest.approx([1.0, 0.0, 0.0], abs=0.0)

    def test_zero_rotational_temperature_only(self):
        # frozen rotation picks the rotational ground pair; vibration still thermal
        levels = [
            bare_level(1, 0.0, vib_thz=0.0),
            bare_level(2, 0.0, vib_thz=100.95),
            bare_level(3, 9.0, vib_thz=0.0),
        ]
        p = ctls_populations(levels, Temperatures(0.0, 300.0))
        w2 = math.exp(-100950.0 * K_PER_GHZ / 300.0)
        assert p[2] == 0.0
        assert p[1] / p[0] == pytest.approx(w2, rel=1e-12)

    def test_rovib_loop_barely_excited(self, rovib_config):
        p = ctls_populations(rovib_config.levels, Temperatures(300.0, 300.0))
        assert p[1] + p[2] == pytest.approx(1.9346223947240966e-07, rel=1e-9)
        assert p[0] == pytest.approx(1.0 - 1.9346223947240966e-07, rel=1e-12)

    def test_rotational_loop_at_10k(self, rotational_config):
        p = ctls_populations(rotational_config.levels, Temperatures(10.0, 300.0))
        assert p == pytest.approx(
            [0.3459650191788042, 0.3276819104071756, 0.3263530704140203], abs=1e-12
        )

    def test_equal_energy_levels_exchange_invariant(self):
        levels = [bare_level(1, 0.0), bare_level(2, 4.0), bare_level(3, 4.0)]
        p = ctls_populations(levels, Temperatures(3.0, 300.0))
        assert p[1] == pytest.approx(p[2], rel=1e-14)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=3, max_size=3),
        st.floats(min_value=0.01, max_value=1000.0),
        st.floats(min_value=-200.0, max_value=200.0),
    )
    @settings(deadline=None, max_examples=80)
    def test_sum_and_shift_invariance(self, energies, t_rot, shift):
        levels = [bare_level(i + 1, e) for i, e in enumerate(energies)]
        shifted = [bare_level(i + 1, e + shift + 500.0) for i, e in enumerate(energies)]
        temps = Temperatures(t_rot, 300.0)
        p = ctls_populations(levels, temps)
        q = ctls_populations(shifted, temps)
        assert p[0] + p[1] + p[2] == pytest.approx(1.0, abs=1e-12)
        assert p == pytest.approx(q, abs=1e-10)

    def test_p1_nonincreasing_and_equipartition_limit(self, rotational_config):
        temps = np.logspace(-2, 4, 40)
        p1 = [
            ctls_populations(rotational_config.levels, Temperatures(t, 300.0))[0]
            for t in temps
        ]
        assert all(a >= b - 1e-15 for a, b in zip(p1, p1[1:]))
        p_hot = ctls_populations(rotational_config.levels, Temperatures(1e7, 300.0))
        assert p_hot == pytest.approx([1 / 3] * 3, abs=1e-6)

    def test_extreme_energy_scales_stay_normalized(self):
        # combined-exponent shifting: huge rotational splittings must not
        # underflow the whole weight vector
        levels = [
            bare_level(1, 0.0, vib_thz=100.0),
            bare_level(2, 2e6, vib_thz=0.0),
            bare_level(3, 2e6 + 5.0, vib_thz=0.0),
        ]
        p = ctls_populations(levels, Temperatures(10.0, 300.0))
        assert p == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)

    def test_frozen_vibration_renormalizes_within_subset(self):
        levels = [
            bare_level(1, 0.0, vib_thz=100.0),
            bare_level(2, 2e6, vib_thz=0.0),
            bare_level(3, 2e6 + 5.0, vib_thz=0.0),
        ]
        p = ctls_populations(levels, Temperatures(10.0, 0.0))
        assert p[0] == 0.0
        ratio = math.exp(-5.0 * K_PER_GHZ / 10.0)
        # exponents ~1e4 leave ~1e-12 of cancellation noise in the ratio
        assert p[2] / p[1] == pytest.approx(ratio, rel=1e-9)

    def test_duplicate_levels_rejected(self):
        level = bare_level(1, 0.0)
        with pytest.raises(ValueError):
            ctls_populations([level, level, bare_level(3, 2.0)], Temperatures(1.0, 1.0))

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            Temperatures(-1.0, 300.0)

    def test_temperature_grid_of_more_dimensions_rejected(self, propanediol):
        message = r"^t_rot_k must be a float or a 1-D array, got shape \(2, 2\)$"
        with pytest.raises(ValueError, match=message):
            rotational_partition(propanediol, np.full((2, 2), 10.0))

    @pytest.mark.parametrize("frequency", [0.0, -1.0, np.nan, np.inf])
    def test_mode_frequency_must_be_finite_and_positive(self, frequency):
        with pytest.raises(ValueError, match="^mode frequency must be finite and > 0, got"):
            VibrationalMode(name="m", frequency_thz=frequency, max_quanta=5)

    @pytest.mark.parametrize(
        "quantum, energy, message",
        [
            (-1, 0.0, "vib_quantum must be >= 0, got -1"),
            (1, -1.0, "vib_energy_thz must be >= 0, got -1.0"),
        ],
        ids=["negative-quantum", "negative-energy"],
    )
    def test_level_vibration_must_be_non_negative(self, quantum, energy, message):
        rot = RotorLevel(j=0, tau=0, energy_ghz=0.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            RoVibLevel(vib_quantum=quantum, vib_energy_thz=energy, rot=rot)


class TestTinyTemperatures:
    """A positive temperature too small for its exponents to be finite."""

    # E_rot 0 / E_vib 100 THz, and two v = 0 levels with E_rot 6 and 9 GHz
    LEVELS = [
        bare_level(1, 0.0, vib_thz=100.0),
        bare_level(2, 6.0),
        bare_level(3, 9.0),
    ]

    @pytest.mark.parametrize(
        "tiny, cold",
        [
            ((1e-310, 300.0), (0.0, 300.0)),
            ((10.0, 1e-310), (10.0, 0.0)),
            ((1e-310, 1e-310), (0.0, 0.0)),
            ((5e-324, 300.0), (0.0, 300.0)),
        ],
        ids=["T_rot", "T_vib", "both", "subnormal-T_rot"],
    )
    def test_equals_the_zero_temperature_limit(self, tiny, cold):
        assert (loop_populations(self.LEVELS, *tiny) == loop_populations(self.LEVELS, *cold)).all()

    def test_vibration_decides_between_rotationally_tied_levels(self):
        # levels 0 and 1 share E_rot = 6 GHz; at 300 K the v = 1 level keeps
        # exp(-100 THz h/kT) of the v = 0 level's weight
        levels = [bare_level(1, 6.0), bare_level(2, 6.0, vib_thz=100.0), bare_level(3, 9.0)]
        p = loop_populations(levels, 1e-310, 300.0)
        assert (p == loop_populations(levels, 0.0, 300.0)).all()
        assert p[0, 1] / p[0, 0] == pytest.approx(np.exp(-1e5 * K_PER_GHZ / 300.0), rel=1e-12)
        assert p[0, 2] == 0.0

    def test_warm_rows_of_a_grid_are_unchanged(self):
        grid = np.array([1e-310, 0.5, 10.0, 300.0])
        p = loop_populations(self.LEVELS, grid, 300.0)
        assert (p[1:] == loop_populations(self.LEVELS, grid[1:], 300.0)).all()

    def test_global_proportion_and_partition_sum(self, rovib_config):
        # Z_rot(1e-310 K) is the J = 0 ground state alone
        assert rotational_partition(PROPANEDIOL, 1e-310) == 1.0
        # the manifold's ground is E_vib = 0: a set of v >= 1 levels only,
        # unlike a loop's own minimum, keeps no share at T_vib -> 0
        excited = rovib_config.levels[1:]
        assert all(level.vib_quantum >= 1 for level in excited)
        for t_vib in (0.0, 1e-310):
            shares = global_proportion(
                rovib_config.levels, PROPANEDIOL, (OH_STRETCH,), [1e-310, 1e-5], t_vib
            )
            assert (shares == [[1.0, 0.0, 0.0]] * 2).all()
            shares = global_proportion(
                excited, PROPANEDIOL, (OH_STRETCH,), [1e-310, 1e-5, 10.0], t_vib
            )
            assert (shares == 0.0).all()


class TestFrozenLoopGround:
    """Which levels keep the weight at T = 0: the minimal energy, ties within
    a relative 1e-12 (roundoff) included, nearer levels excluded."""

    @staticmethod
    def level(constants: RotationalConstants, j: int, tau: int, vib_thz: float = 0.0):
        rot = rotor_levels(j, constants)[tau + j]
        return RoVibLevel(vib_quantum=int(vib_thz > 0), vib_energy_thz=vib_thz, rot=rot)

    def test_roundoff_tie_splits_equally(self):
        # the +-K pair of an oblate symmetric top agrees only to roundoff
        oblate = RotationalConstants(A=4.0, B=4.0, C=1.0)
        levels = [self.level(oblate, 4, 0), self.level(oblate, 4, 1), self.level(oblate, 5, 5)]
        gap = levels[1].rot.energy_ghz - levels[0].rot.energy_ghz
        assert 0.0 < gap < 1e-13
        assert (loop_populations(levels, 0.0, 0.0) == [[0.5, 0.5, 0.0]]).all()

    def test_near_tie_is_not_a_tie(self):
        # the v = 1 level's total energy lies 1e-9 relative above the v = 0 one
        e_rot = self.level(PROPANEDIOL, 1, -1).rot.energy_ghz
        levels = [
            self.level(PROPANEDIOL, 1, -1),
            self.level(PROPANEDIOL, 0, 0, vib_thz=e_rot * (1.0 + 1e-9) / 1000.0),
            self.level(PROPANEDIOL, 2, 0),
        ]
        assert (loop_populations(levels, 0.0, 0.0) == [[1.0, 0.0, 0.0]]).all()

    def test_both_frozen_keep_the_lowest_total_energy(self):
        # level 2 has the lowest rotational energy, level 1 the lowest total
        levels = [
            self.level(PROPANEDIOL, 1, -1),
            self.level(PROPANEDIOL, 0, 0, vib_thz=3.0),
            self.level(PROPANEDIOL, 2, 0),
        ]
        assert (loop_populations(levels, 0.0, 0.0) == [[1.0, 0.0, 0.0]]).all()


class TestRotationalPartition:
    def test_low_temperature_limit(self, propanediol):
        assert rotational_partition(propanediol, 0.001) == pytest.approx(1.0, abs=1e-12)

    def test_zero_temperature_is_the_ground_term(self, propanediol):
        # T = 0 is the limit T -> 0+: only the J = 0 term, exactly 1, as at a
        # temperature whose exponents all overflow
        assert rotational_partition(propanediol, 0.0) == 1.0
        assert (rotational_partition(propanediol, np.array([0.0, 1e-310])) == 1.0).all()

    def test_against_plain_summation(self, propanediol):
        # oracle: untruncated degeneracy-weighted sum over J <= 40
        z_direct = 0.0
        for j in range(41):
            for level in rotor_levels(j, propanediol):
                z_direct += (2 * level.j + 1) * math.exp(
                    -level.energy_ghz * K_PER_GHZ / 10.0
                )
        assert rotational_partition(propanediol, 10.0, rel_tol=1e-10) == pytest.approx(
            z_direct, rel=1e-8
        )

    def test_against_classical_estimate(self, propanediol):
        # sqrt(pi (kT/h)^3 / ABC) approximates the sum at 10 K within 20%
        z = rotational_partition(propanediol, 10.0)
        kt_ghz = 10.0 / K_PER_GHZ
        classical = math.sqrt(
            math.pi * kt_ghz**3 / (propanediol.A * propanediol.B * propanediol.C)
        )
        assert abs(z - classical) / classical < 0.2

    def test_monotone_in_temperature(self, propanediol):
        values = [rotational_partition(propanediol, t) for t in (1.0, 5.0, 20.0, 100.0)]
        assert values == sorted(values)

    def test_truncation_self_consistency(self, propanediol):
        # the block-level stopping rule leaves a tail of several blocks just
        # below threshold, so tightening rel_tol tenfold moves Z by a few
        # times rel_tol (measured 5.2e-6 at 300 K for rel_tol = 1e-6)
        for t in (10.0, 300.0):
            loose = rotational_partition(propanediol, t, rel_tol=1e-6)
            tight = rotational_partition(propanediol, t, rel_tol=1e-7)
            assert abs(loose - tight) / tight < 1e-5

    @pytest.mark.parametrize("bad", [-3.0, np.nan])
    def test_bad_temperature_rejected(self, propanediol, bad):
        with pytest.raises(ValueError):
            rotational_partition(propanediol, bad)

    def test_bad_rel_tol_rejected(self, propanediol):
        with pytest.raises(ValueError):
            rotational_partition(propanediol, 10.0, rel_tol=1.5)

    def test_nonconvergence_raises(self):
        # pathologically tiny constants keep every J block relevant at 300 K
        tiny = RotationalConstants(A=1e-4, B=1e-4, C=1e-4)
        with pytest.raises(ConvergenceError):
            rotational_partition(tiny, 300.0, rel_tol=1e-12)


class TestVibrationalPartition:
    def test_no_modes(self):
        assert vibrational_partition((), 300.0) == 1.0

    def test_oh_stretch_at_300k(self, oh_stretch):
        x = 100950.0 * K_PER_GHZ / 300.0
        expected = sum(math.exp(-v * x) for v in range(6))
        assert vibrational_partition((oh_stretch,), 300.0) == pytest.approx(
            expected, rel=1e-14
        )

    def test_zero_temperature(self, oh_stretch):
        assert vibrational_partition((oh_stretch,), 0.0) == 1.0

    @pytest.mark.parametrize(
        "frequency_thz, t_vib_k", [(100.95, 1.0e-310), (1.0e306, 300.0)], ids=["tiny-T", "huge-f"]
    )
    def test_overflowing_exponent_leaves_the_ground_state(self, frequency_thz, t_vib_k):
        # h f / k T overflows to inf; only v = 0 survives, as at T_vib = 0
        mode = VibrationalMode(name="stiff", frequency_thz=frequency_thz, max_quanta=5)
        assert vibrational_partition((mode,), t_vib_k) == 1.0

    @given(
        st.floats(1e-6, 1e4), st.floats(1e-3, 1e4), st.integers(1, 3000)
    )
    @settings(deadline=None, max_examples=200)
    def test_closed_form_matches_the_ladder_loop(self, frequency_thz, t_vib_k, max_quanta):
        # the loop over v = 0..max_quanta, summed without rounding (fsum)
        mode = VibrationalMode(name="m", frequency_thz=frequency_thz, max_quanta=max_quanta)
        x = 1000.0 * frequency_thz * K_PER_GHZ / t_vib_k
        loop = math.fsum(math.exp(-v * x) for v in range(max_quanta + 1))
        assert vibrational_partition((mode,), t_vib_k) == pytest.approx(loop, rel=1e-15, abs=0.0)

    def test_billion_quanta_in_constant_time(self):
        # the ladder is summed in closed form, not term by term
        mode = VibrationalMode(name="soft", frequency_thz=1.0, max_quanta=10**9)
        start = time.perf_counter()
        z = vibrational_partition((mode,), 300.0)
        assert time.perf_counter() - start < 0.5
        # 10**9 quanta reach far beyond the ladder's tail: the infinite sum
        x = 1000.0 * K_PER_GHZ / 300.0
        assert z == pytest.approx(-1.0 / math.expm1(-x), rel=1e-15, abs=0.0)

    def test_max_quanta_up_to_the_exact_float_integers(self):
        # n + 1 terms are counted in floats; beyond 2**53 the count is inexact
        mode = VibrationalMode(name="soft", frequency_thz=1.0, max_quanta=2**53)
        x = 1000.0 * K_PER_GHZ / 300.0
        z = vibrational_partition((mode,), 300.0)
        assert z == pytest.approx(-1.0 / math.expm1(-x), rel=1e-15)
        with pytest.raises(ValueError, match=r"max_quanta must lie in \[1, 2\*\*53\]"):
            VibrationalMode(name="soft", frequency_thz=1.0, max_quanta=2**53 + 1)

    def test_underflowing_exponent_counts_every_quantum(self):
        # h f / k T underflows to 0: every term of the ladder is 1
        mode = VibrationalMode(name="limp", frequency_thz=5e-324, max_quanta=7)
        assert vibrational_partition((mode,), 300.0) == 8.0

    def test_two_modes_factorize(self, oh_stretch):
        other = VibrationalMode(name="other", frequency_thz=50.0, max_quanta=3)
        z = vibrational_partition((oh_stretch, other), 300.0)
        assert z == pytest.approx(
            vibrational_partition((oh_stretch,), 300.0)
            * vibrational_partition((other,), 300.0),
            rel=1e-14,
        )


class TestGlobalProportion:
    def test_ground_state_share_at_10k(self, rovib_config):
        # direct degeneracy-weighted summation gives ~0.17%
        p1 = global_proportion(
            [rovib_config.levels[0]], PROPANEDIOL, (OH_STRETCH,), 10.0, 300.0
        )[0, 0]
        assert p1 == pytest.approx(0.001736, rel=1e-2)
        assert 5e-4 < p1 < 3e-3

    def test_low_temperature_limit(self, rovib_config):
        p1 = global_proportion(
            [rovib_config.levels[0]], PROPANEDIOL, (OH_STRETCH,), 0.01, 300.0
        )[0, 0]
        assert p1 == pytest.approx(1.0, abs=1e-6)

    def test_excited_levels_negligible(self, rovib_config):
        for t_rot in (0.1, 10.0, 300.0):
            for level in rovib_config.levels[1:]:
                assert (
                    global_proportion([level], PROPANEDIOL, (OH_STRETCH,), t_rot, 300.0)[0, 0]
                    < 1e-7
                )

    def test_enumerated_shares_approach_one(self, propanediol):
        # at 1 K the J <= 8 rotational levels carry nearly all population
        total = 0.0
        for j in range(9):
            for rot in rotor_levels(j, propanediol):
                level = RoVibLevel(vib_quantum=0, vib_energy_thz=0.0, rot=rot)
                total += (2 * rot.j + 1) * global_proportion(
                    [level], propanediol, (OH_STRETCH,), 1.0, 300.0
                )[0, 0]
        assert total <= 1.0 + 1e-9
        assert total > 0.999


class TestYieldEta:
    @pytest.mark.parametrize("p1, eta", [(1.0, 0.5), (0.0, 0.0), (0.001, 0.0005)])
    def test_values(self, p1, eta):
        assert yield_eta(p1) == eta

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            yield_eta(bad)
