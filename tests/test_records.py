"""The record kernel against Python's own ``%.17g`` and ``%d``, byte for byte."""
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import catenoid_momentum
from revolve._records import _CHUNK, _float_digits, record_pieces, records
from revolve.mesh import revolve
from revolve.reconstruct import integrate_profile


def _floats(values):
    want = "".join("%.17g\n" % v for v in values)
    got = records("%.17g\n", [np.array(values, dtype=np.float64)])
    assert got == want


def _ints(values):
    want = "".join("%d\n" % i for i in values)
    assert records("%d\n", [np.array(values, dtype=np.int64)]) == want


_bit_patterns = st.integers(min_value=0, max_value=2 ** 64 - 1).map(
    lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])


@given(st.lists(_bit_patterns, max_size=40))
@settings(max_examples=200, deadline=None)
def test_any_bit_pattern_matches_percent_format(values):
    # NaN payloads, subnormals and both infinities included
    _floats(values)


@given(st.lists(st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1), max_size=40))
@settings(max_examples=100, deadline=None)
def test_any_int64_matches_percent_d(values):
    _ints(values)


def test_random_bit_patterns_and_scales():
    rng = np.random.default_rng(11)
    _floats(rng.integers(-2 ** 63, 2 ** 63 - 1, 20_000).view(np.float64).tolist())
    scaled = rng.standard_normal(20_000) * 10.0 ** rng.integers(-35, 35, 20_000)
    _floats(scaled.tolist())


def test_powers_of_ten_and_their_neighbours():
    # the e-05 / 0.0001 and 1e+16 / 1e+17 notation switches and the
    # exponents the log10 estimate can miss
    p = np.array([float(f"1e{e}") for e in range(-40, 41)])
    values = np.concatenate((p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)))
    _floats(np.concatenate((values, -values)).tolist())
    _floats([9.9999999999999995e-5, 99999999999999999.0, 9.9999999999999999e16,
             0.00010000000000000001, 1e16 - 2.0, 1e17 - 16.0])
    # the double nearest 1e-14 lies 1.2e-18 below it: its 17 digits at its
    # own exponent round up to the next power of ten, on the fast path
    _, E, slow = _float_digits(np.array([1e-14]))
    assert E.tolist() == [-14] and slow.tolist() == [False]


def test_dyadic_ties():
    # m / 2**j with 18 or more significant digits ends on an exact tie at
    # the 17th digit for some m: those take the fallback and round half even
    values = [m / 2.0 ** j for m in (1, 3, 5, 131_071, 131_073, 2 ** 52 + 1)
              for j in range(1, 64)]
    _floats(values + [-v for v in values])
    _, _, slow = _float_digits(np.array([131_073 / 2 ** 17]))
    assert slow.tolist() == [True]


def test_special_values():
    _floats([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
             2.2250738585072014e-308, 1.7976931348623157e308,
             -1.7976931348623157e308, 1e-30, 1e30, 0.1, 1.0, 2.5])


def test_integers():
    _ints([0, 9, 10, 99, 100, 2 ** 31, 10 ** 18, -1, -10, -10 ** 18,
           2 ** 63 - 1, -2 ** 63])


def test_blocks_of_zero_and_one_rows():
    template = "v %.17g %d,%.17g\n"
    assert records(template, [[], [], []]) == ""
    assert records(template, [[-0.5], [7], [1e-300]]) == template % (-0.5, 7, 1e-300)


def test_runs_and_piece_boundaries():
    # runs of bit-identical values, -0.0 next to 0.0, and a run across the
    # boundary between two rendered pieces
    z = np.repeat([0.0, -0.0, 1.0 / 3.0, math.nan, -2.5e-7], [7, 3, _CHUNK, 5, 4])
    x = np.arange(len(z)) * 0.1
    want = "%.17g,%.17g\n" * len(z) % tuple(np.column_stack((x, z)).ravel().tolist())
    assert records("%.17g,%.17g\n", (x, z)) == want
    # the same records as bytes, one piece per _CHUNK of them
    pieces = list(record_pieces("%.17g,%.17g\n", (x, z)))
    assert [p.count(b"\n") for p in pieces] == [_CHUNK, len(z) - _CHUNK]
    assert b"".join(pieces) == want.encode("ascii")


def test_bad_templates_are_refused():
    with pytest.raises(ValueError):
        records("%.3f\n", [[1.0]])
    with pytest.raises(ValueError):
        records("%.17g %.17g\n", [[1.0]])
    with pytest.raises(ValueError):
        records("%.17g %d\n", [[1.0], [1, 2]])
    with pytest.raises(ValueError):  # at the call, before any piece is asked for
        record_pieces("%.17g %d\n", [[1.0], [1, 2]])


def test_revolved_mesh_takes_the_fast_path():
    p = integrate_profile(catenoid_momentum(), start_x=2.0, s_max=1.5,
                          s_min=-1.5, samples_per_branch=64)
    values = revolve(p, n_theta=128).vertices.ravel()
    _, _, slow = _float_digits(values)
    assert np.count_nonzero(slow) < 0.01 * len(values)
