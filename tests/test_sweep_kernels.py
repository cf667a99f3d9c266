"""The grid kernels against per-point references and a classical oracle.

The references below evaluate one temperature at a time, the way the
sweeps did before they took the whole grid: population and excess sweeps
must match them exactly, the yield sweep to 1e-15 relative (``np.exp``
against ``math.exp``), and the partition function exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctlsim.rotor import RotationalConstants, RotorLevel, block_energies
from ctlsim.thermal import (
    K_PER_GHZ,
    ConvergenceError,
    RoVibLevel,
    Temperatures,
    VibrationalMode,
    _populations,
    ctls_populations,
    loop_populations,
    rotational_partition,
    vibrational_partition,
)
from ctlsim.transfer import (
    LABELINGS,
    PURELY_ROTATIONAL,
    RO_VIBRATIONAL,
    CtlsConfig,
    enantiomeric_excess,
    excess_sweep,
    make_level,
    population_sweep,
    yield_sweep,
)

from .conftest import OH_STRETCH, PROPANEDIOL, build_config, label_digits


def reference_populations(levels, t_rot, t_vib):
    """Two-temperature loop populations at one temperature pair."""
    vib = np.array([lv.vib_energy_ghz for lv in levels])
    rot = np.array([lv.rot.energy_ghz for lv in levels])

    def ground(e):
        return e - e.min() <= 1e-12 * max(1.0, abs(e.min()))

    def shifted(e, t):
        x = e * K_PER_GHZ / t
        return np.exp(-(x - x.min()))

    if t_rot == 0.0 and t_vib == 0.0:
        w = ground(vib + rot).astype(float)
    elif t_rot == 0.0 or t_vib == 0.0:
        frozen, thermal, t = (vib, rot, t_rot) if t_vib == 0.0 else (rot, vib, t_vib)
        w = np.zeros(3)
        w[ground(frozen)] = shifted(thermal[ground(frozen)], t)
    else:
        x = vib * K_PER_GHZ / t_vib + rot * K_PER_GHZ / t_rot
        w = np.exp(-(x - x.min()))
    return w / w.sum()


def reference_partition(constants, t_rot, rel_tol=1e-8):
    """Z_rot at one temperature, J blocks summed until one falls below rel_tol."""
    total = 0.0
    for j in range(201):
        energies = block_energies(j, constants)
        contribution = (2 * j + 1) * float(np.exp(-energies * K_PER_GHZ / t_rot).sum())
        total += contribution
        if contribution < rel_tol * total:
            return total
    raise AssertionError("reference partition sum did not converge")


def reference_yield(config, t_rot, t_vib):
    """(P1, P2, P3, eta) at one temperature pair."""
    z = vibrational_partition(config.modes, t_vib) * reference_partition(config.constants, t_rot)
    row = []
    for level in config.levels:
        if t_vib == 0.0:
            p_vib = float(level.vib_quantum == 0)
        else:
            p_vib = math.exp(-level.vib_energy_ghz * K_PER_GHZ / t_vib)
        row.append(p_vib * math.exp(-level.rot.energy_ghz * K_PER_GHZ / t_rot) / z)
    return row + [row[0] / 2.0]


@st.composite
def loop_configs(draw, smallest=0.1, largest=100.0):
    """A loop over |0_00> and two distinct J = 1, 2 levels of a random top."""
    a, b, c = sorted(
        draw(st.lists(st.floats(smallest, largest), min_size=3, max_size=3)), reverse=True
    )
    constants = RotationalConstants(a, b, c)
    labeling = draw(st.sampled_from(LABELINGS))
    mode = draw(st.sampled_from((RO_VIBRATIONAL, PURELY_ROTATIONAL)))
    vib_mode = VibrationalMode("mode", draw(st.floats(20.0, 120.0)), draw(st.integers(1, 6)))
    excited = st.integers(1, vib_mode.max_quanta) if mode == RO_VIBRATIONAL else st.just(0)
    picks = draw(
        st.lists(
            st.sampled_from(label_digits(labeling)),
            min_size=2, max_size=2, unique_by=lambda d: (d[0], d[3]),
        )
    )
    levels = [make_level(constants, (vib_mode,), 0, 0, 0, 0, labeling)] + [
        make_level(constants, (vib_mode,), draw(excited), j, first, second, labeling)
        for j, first, second, _ in picks
    ]
    return CtlsConfig(mode, constants, (vib_mode,), tuple(levels))


T_VIB = st.one_of(st.just(0.0), st.floats(1.0, 1000.0))
GRID_WITH_ZERO = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=2, max_size=12
).filter(lambda grid: 0.0 in grid)


@given(loop_configs(), GRID_WITH_ZERO, T_VIB)
@settings(deadline=None, max_examples=60)
def test_population_and_excess_sweeps_equal_per_point(config, grid, t_vib):
    expected = np.array([reference_populations(config.levels, t, t_vib) for t in grid])
    populations = population_sweep(config, grid, t_vib)
    assert np.array_equal(populations, expected)
    # every row is a probability vector, T = 0 rows included
    assert ((0.0 <= populations) & (populations <= 1.0)).all()
    assert np.abs(populations.sum(axis=1) - 1.0).max() <= 1e-12
    p1, p3 = expected[:, 0], expected[:, 2]
    assert np.array_equal(excess_sweep(config, grid, t_vib), np.abs(p3 - p1) / (p3 + p1))
    one_point = ctls_populations(config.levels, Temperatures(grid[-1], t_vib))
    assert one_point.shape == (3,)
    assert np.array_equal(one_point, expected[-1])


@given(
    loop_configs(smallest=2.0, largest=40.0),
    st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=8),
    T_VIB,
)
@settings(deadline=None, max_examples=30)
def test_yield_sweep_matches_per_point(config, grid, t_vib):
    expected = np.array([reference_yield(config, t, t_vib) for t in grid])
    # np.exp and math.exp may differ by an ulp; below the normal range a
    # relative bound means nothing
    np.testing.assert_allclose(
        yield_sweep(config, grid, t_vib), expected, rtol=1e-15, atol=np.finfo(float).tiny
    )


@given(
    st.lists(st.floats(2.0, 40.0), min_size=3, max_size=3),
    st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=10),
)
@settings(deadline=None, max_examples=30)
def test_partition_grid_equals_per_point(abc, grid):
    constants = RotationalConstants(*sorted(abc, reverse=True))
    expected = [reference_partition(constants, t) for t in grid]
    assert np.array_equal(rotational_partition(constants, np.array(grid)), expected)
    assert [rotational_partition(constants, t) for t in grid] == expected


@given(
    st.floats(0.5, 10.0),
    st.floats(0.4, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.02, 0.05),
)
@settings(deadline=None, max_examples=30)
def test_partition_matches_high_temperature_expansion(a, c_over_a, b_frac, ha_over_kt):
    # Stripp-Kirkwood: Z_cl (1 + sigma h / 12 kB T), with
    # Z_cl = sqrt(pi / ABC) (kB T / h)^(3/2) and
    # sigma = 2(A+B+C) - (AB/C + BC/A + CA/B). The next term is O((hA/kB T)^2);
    # its measured coefficient stays below 0.035 for A/C <= 2.5 but reaches
    # 0.098 for the oblate top A = B = 4C, hence the drawn range of C/A.
    c = a * c_over_a
    b = min(a, c + b_frac * (a - c))
    t = a * K_PER_GHZ / ha_over_kt
    sigma = 2.0 * (a + b + c) - (a * b / c + b * c / a + c * a / b)
    z_high_t = (
        math.sqrt(math.pi / (a * b * c))
        * (t / K_PER_GHZ) ** 1.5
        * (1.0 + sigma * K_PER_GHZ / (12.0 * t))
    )
    z = rotational_partition(RotationalConstants(a, b, c), t)
    assert abs(z / z_high_t - 1.0) <= 0.05 * ha_over_kt**2 + 1e-7


@given(st.permutations([5.0, 50.0, 250.0, 400.0, 600.0, 450.0]))
@settings(deadline=None, max_examples=10)
def test_convergence_error_names_first_unconverged_temperature(grid):
    # propanediol's partition sum reaches the J cap near 340 K
    first = next(t for t in grid if t > 340.0)
    with pytest.raises(ConvergenceError, match=rf"\(T = {first} K"):
        rotational_partition(PROPANEDIOL, grid)
    with pytest.raises(ConvergenceError, match=rf"\(T = {first} K"):
        yield_sweep(build_config(RO_VIBRATIONAL), grid, 300.0)


@given(GRID_WITH_ZERO, T_VIB)
@settings(deadline=None, max_examples=20)
def test_excess_undefined_on_any_row_raises(grid, t_vib):
    # |1> and |3> lie above |2> = |0_00>, so a frozen rotation empties both:
    # the excess of such a row raises, and the sweep takes its limit instead
    modes = (OH_STRETCH,)
    levels = (
        make_level(PROPANEDIOL, modes, 0, 1, 0, 0, "tau"),
        make_level(PROPANEDIOL, modes, 0, 0, 0, 0, "tau"),
        make_level(PROPANEDIOL, modes, 0, 1, 1, 0, "tau"),
    )
    config = CtlsConfig(PURELY_ROTATIONAL, PROPANEDIOL, modes, levels)
    with pytest.raises(ValueError, match="excess undefined: levels 1 and 3 are both unoccupied"):
        enantiomeric_excess(population_sweep(config, grid, t_vib))
    excess = excess_sweep(config, grid, t_vib)
    assert np.isfinite(excess).all()
    assert ((0.0 <= excess) & (excess <= 1.0)).all()
    # J = 1, tau = 0 lies below J = 1, tau = 1: the frozen pair keeps |1> alone
    assert (excess[np.array(grid) == 0.0] == 1.0).all()


@st.composite
def level_2_lowest(draw):
    """Three levels, |2> lowest in rotational energy, and a T_rot at which
    p1 + p3 = exp(-gap) or so: small, but a normal float."""
    t_vib = draw(st.floats(1.0, 1000.0))
    rot_2 = draw(st.floats(0.0, 100.0))
    gap_1, gap_3 = draw(
        st.lists(st.floats(1e-2, 1e3), min_size=2, max_size=2).filter(
            lambda g: abs(g[0] - g[1]) >= 1e-2 * max(g)
        )
    )
    gap = draw(st.floats(10.0, 600.0))
    t_rot = min(gap_1, gap_3) * K_PER_GHZ / gap
    # level 1 in the vibrational ground state; 2 and 3 excited or not, with
    # vibrational exponents up to 5 at T_vib
    x_vib = draw(
        st.one_of(st.just((0.0, 0.0)), st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)))
    )
    levels = tuple(
        RoVibLevel(int(x > 0.0), x * t_vib / K_PER_GHZ / 1000.0, RotorLevel(j, 0, rot))
        for j, (x, rot) in enumerate(
            zip((0.0, *x_vib), (rot_2 + gap_1, rot_2, rot_2 + gap_3))
        )
    )
    return levels, t_rot, t_vib


@given(level_2_lowest())
@settings(deadline=None, max_examples=200)
def test_pair_excess_matches_loop_excess(drawn):
    # the sweep's limit on empty rows is the excess of levels 1 and 3 alone;
    # where the loop formula still has p1 + p3 > 0 the two must agree
    levels, t_rot, t_vib = drawn
    ((p1, _, p3),) = loop_populations(levels, t_rot, t_vib)
    assert 0.0 < p1 + p3 < 1e-2
    ((q1, q3),) = _populations(levels[::2], t_rot, t_vib)
    loop, pair = abs(p3 - p1) / (p3 + p1), abs(q3 - q1)
    assert abs(pair - loop) <= 1e-12 * loop


@pytest.mark.parametrize("sweep", [population_sweep, excess_sweep, yield_sweep])
@pytest.mark.parametrize(
    "grid, t_vib",
    [([1.0, -1.0], 300.0), ([1.0, np.nan], 300.0), ([np.inf], 300.0),
     ([1.0], -1.0), ([1.0], np.nan), ([1.0], np.inf)],
)
def test_sweeps_reject_bad_temperatures(rovib_config, sweep, grid, t_vib):
    with pytest.raises(ValueError, match="must be finite and"):
        sweep(rovib_config, grid, t_vib)


def test_yield_sweep_at_zero_rotational_temperature_is_the_cold_limit(rovib_config):
    # T_rot = 0 keeps only the J = 0 level, as a T_rot whose exponents all
    # overflow does; Z_rot(0) is the J = 0 term alone
    rows = yield_sweep(rovib_config, [0.0, 1e-310, 1.0], 300.0)
    assert (rows[0] == rows[1]).all()
    assert rows[0, 0] > 0.0 and (rows[0, 1:3] == 0.0).all()
    assert rotational_partition(PROPANEDIOL, 0.0) == 1.0


def test_overflowing_rotational_temperature_gives_the_cold_limit():
    # no level is J = 0, so at 1e-310 K every rotational exponent is infinite
    modes = (OH_STRETCH,)
    levels = tuple(
        make_level(PROPANEDIOL, modes, 0, j, tau, 0, "tau") for j, tau in ((1, 0), (1, 1), (2, 0))
    )
    config = CtlsConfig(PURELY_ROTATIONAL, PROPANEDIOL, modes, levels)
    tiny = population_sweep(config, [1.0, 1e-310], 300.0)[1]
    assert (tiny == population_sweep(config, [0.0], 300.0)[0]).all()
    assert (tiny == [1.0, 0.0, 0.0]).all()
