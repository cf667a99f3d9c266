import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctlsim.rotor import RotationalConstants, RotorLevel, rotor_levels
from ctlsim.thermal import (
    K_PER_GHZ,
    ConvergenceError,
    OccupationTriple,
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
        assert p.as_array() == pytest.approx([1 / 3] * 3, abs=1e-14)

    def test_zero_temperature_ground_state(self):
        levels = [bare_level(1, 0.0), bare_level(2, 5.0), bare_level(3, 9.0)]
        p = ctls_populations(levels, Temperatures(0.0, 0.0))
        assert p.as_array() == pytest.approx([1.0, 0.0, 0.0], abs=0.0)

    def test_zero_rotational_temperature_only(self):
        # frozen rotation picks the rotational ground pair; vibration still thermal
        levels = [
            bare_level(1, 0.0, vib_thz=0.0),
            bare_level(2, 0.0, vib_thz=100.95),
            bare_level(3, 9.0, vib_thz=0.0),
        ]
        p = ctls_populations(levels, Temperatures(0.0, 300.0))
        w2 = math.exp(-100950.0 * K_PER_GHZ / 300.0)
        assert p.p3 == 0.0
        assert p.p2 / p.p1 == pytest.approx(w2, rel=1e-12)

    def test_rovib_loop_barely_excited(self, rovib_config):
        p = ctls_populations(rovib_config.levels, Temperatures(300.0, 300.0))
        assert p.p2 + p.p3 == pytest.approx(1.9346223947240966e-07, rel=1e-9)
        assert p.p1 == pytest.approx(1.0 - 1.9346223947240966e-07, rel=1e-12)

    def test_rotational_loop_at_10k(self, rotational_config):
        p = ctls_populations(rotational_config.levels, Temperatures(10.0, 300.0))
        assert p.as_array() == pytest.approx(
            [0.3459650191788042, 0.3276819104071756, 0.3263530704140203], abs=1e-12
        )

    def test_equal_energy_levels_exchange_invariant(self):
        levels = [bare_level(1, 0.0), bare_level(2, 4.0), bare_level(3, 4.0)]
        p = ctls_populations(levels, Temperatures(3.0, 300.0))
        assert p.p2 == pytest.approx(p.p3, rel=1e-14)

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
        assert p.p1 + p.p2 + p.p3 == pytest.approx(1.0, abs=1e-12)
        assert p.as_array() == pytest.approx(q.as_array(), abs=1e-10)

    def test_p1_nonincreasing_and_equipartition_limit(self, rotational_config):
        temps = np.logspace(-2, 4, 40)
        p1 = [
            ctls_populations(rotational_config.levels, Temperatures(t, 300.0)).p1
            for t in temps
        ]
        assert all(a >= b - 1e-15 for a, b in zip(p1, p1[1:]))
        p_hot = ctls_populations(rotational_config.levels, Temperatures(1e7, 300.0))
        assert p_hot.as_array() == pytest.approx([1 / 3] * 3, abs=1e-6)

    def test_extreme_energy_scales_stay_normalized(self):
        # combined-exponent shifting: huge rotational splittings must not
        # underflow the whole weight vector
        levels = [
            bare_level(1, 0.0, vib_thz=100.0),
            bare_level(2, 2e6, vib_thz=0.0),
            bare_level(3, 2e6 + 5.0, vib_thz=0.0),
        ]
        p = ctls_populations(levels, Temperatures(10.0, 300.0))
        assert p.as_array() == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)

    def test_frozen_vibration_renormalizes_within_subset(self):
        levels = [
            bare_level(1, 0.0, vib_thz=100.0),
            bare_level(2, 2e6, vib_thz=0.0),
            bare_level(3, 2e6 + 5.0, vib_thz=0.0),
        ]
        p = ctls_populations(levels, Temperatures(10.0, 0.0))
        assert p.p1 == 0.0
        ratio = math.exp(-5.0 * K_PER_GHZ / 10.0)
        # exponents ~1e4 leave ~1e-12 of cancellation noise in the ratio
        assert p.p3 / p.p2 == pytest.approx(ratio, rel=1e-9)

    def test_duplicate_levels_rejected(self):
        level = bare_level(1, 0.0)
        with pytest.raises(ValueError):
            ctls_populations([level, level, bare_level(3, 2.0)], Temperatures(1.0, 1.0))

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            Temperatures(-1.0, 300.0)


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
        shares = global_proportion(
            rovib_config.levels, PROPANEDIOL, (OH_STRETCH,), [1e-310, 1e-5], 1e-310
        )
        assert (shares == [[1.0, 0.0, 0.0]] * 2).all()


class TestRotationalPartition:
    def test_low_temperature_limit(self, propanediol):
        assert rotational_partition(propanediol, 0.001) == pytest.approx(1.0, abs=1e-12)

    def test_against_plain_summation(self, propanediol):
        # oracle: untruncated degeneracy-weighted sum over J <= 40
        z_direct = 0.0
        for j in range(41):
            for level in rotor_levels(j, propanediol):
                z_direct += level.degeneracy * math.exp(
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

    @pytest.mark.parametrize("bad", [0.0, -3.0])
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
        mode = VibrationalMode(name="stiff", frequency_thz=frequency_thz)
        assert vibrational_partition((mode,), t_vib_k) == 1.0

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
                total += rot.degeneracy * global_proportion(
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


class TestOccupationTriple:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            OccupationTriple(0.5, 0.4, 0.2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            OccupationTriple(1.2, -0.1, -0.1)
