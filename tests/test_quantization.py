import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgcons import quantization as qz
from avgcons.sampling import ProtocolParams, RngStream

BETAS = (0.01, 0.1, 1.0)


# ---------------------------------------------------------------------------
# quantize / dequantize


@pytest.mark.parametrize("beta", BETAS)
def test_quantize_one_is_exponent_zero(beta):
    assert qz.quantize(1.0, beta) == 0


@pytest.mark.parametrize("beta", BETAS)
def test_quantize_exact_powers_is_a_fixed_point(beta):
    for k in (-7, -1, 0, 3, 20):
        assert qz.quantize((1.0 + beta) ** k, beta) == k


def test_quantize_five_at_beta_one_brackets_between_powers_of_two():
    # 4 <= 5 < 8, so the exponent is 2 and the represented value 4.
    assert qz.quantize(5.0, 1.0) == 2
    assert qz.dequantize_array([qz.quantize(5.0, 1.0)], 1.0)[0] == 4.0


def test_quantize_rejects_nonpositive():
    with pytest.raises(ValueError):
        qz.quantize(0.0, 0.1)
    with pytest.raises(ValueError):
        qz.quantize(-3.0, 0.1)
    with pytest.raises(ValueError):
        qz.quantize(1.0, 0.0)


@pytest.mark.parametrize("beta", [1e-15, 2.3e-16])
@pytest.mark.parametrize("x", [2.0, 1e300, 1e-300])
def test_quantize_brackets_at_a_beta_of_a_few_ulps(x, beta):
    # 1 + beta rounds to a few ulps above 1, percents away from 1 + beta, so a
    # first guess from log1p(beta), not the rounded base, is 10^13 exponents off.
    k = qz.quantize_array([x], beta)
    assert qz.dequantize_array(k, beta)[0] <= x < qz.dequantize_array(k + 1, beta)[0]


@pytest.mark.parametrize("call", [lambda: qz.quantize_array([2.0], 1e-17),
                                  lambda: qz.dequantize_array([3], 1e-17),
                                  lambda: qz.quantize_array([2.0], math.inf),
                                  lambda: qz.dequantize_array([3], math.inf),
                                  lambda: qz.quantize_array([5e-324], 1e-9),
                                  lambda: qz.quantize_array([1.0, 1e-308], 0.1)],
                         ids=["quantize-beta-below-an-ulp", "dequantize-beta-below-an-ulp",
                              "quantize-infinite-beta", "dequantize-infinite-beta",
                              "smallest-subnormal", "subnormal-among-normals"])
def test_quantization_rejects_a_grid_without_steps_and_subnormal_inputs(call):
    with pytest.raises(ValueError):
        call()


def test_dequantize_trivials():
    assert qz.dequantize_array([0], 0.37)[0] == 1.0
    assert qz.dequantize_array([2], 1.0)[0] == 4.0


@pytest.mark.parametrize("beta", BETAS)
def test_roundtrip_over_exponent_range(beta):
    for k, x in zip(range(-60, 61), qz.dequantize_array(np.arange(-60, 61), beta).tolist()):
        assert qz.quantize(x, beta) == k


def test_array_quantize_matches_scalar():
    rng = np.random.default_rng(42)
    drawn = np.exp(rng.uniform(np.log(1e-9), np.log(1e9), size=500))
    for beta in BETAS:
        # Every grid point and its two float neighbours, where a second
        # grid would round differently.
        grid = qz.dequantize_array(np.arange(-60, 61), beta)
        xs = np.concatenate([drawn, grid, np.nextafter(grid, 0.0), np.nextafter(grid, np.inf)])
        ks = qz.quantize_array(xs, beta)
        assert all(int(ks[i]) == qz.quantize(float(xs[i]), beta) for i in range(len(xs)))


@pytest.mark.parametrize("beta", BETAS)
def test_scalar_rounding_is_on_the_array_grid(beta):
    ks = np.arange(-60, 61)
    grid = qz.dequantize_array(ks, beta)
    for k, x in zip(ks.tolist(), grid.tolist()):
        assert qz.dequantize_array([k], beta)[0] == x
        assert qz.quantize(x, beta) == k
        # x is the least value with exponent k.
        assert qz.quantize(float(np.nextafter(x, 0.0)), beta) == k - 1


def two_loop_quantize(xs, beta):
    """The rounding with np.power on every entry, as quantize_array did
    before it read its powers from a table: the oracle.  A power past the
    largest float is inf, as on the grid, with no overflow warning."""
    xs = np.asarray(xs, dtype=np.float64)
    base = 1.0 + beta
    ks = np.floor(np.log(xs) / np.log1p(beta)).astype(np.int64)
    with np.errstate(over="ignore"):
        while True:
            low = np.power(base, (ks + 1).astype(np.float64)) <= xs
            if not low.any():
                break
            ks[low] += 1
        while True:
            high = np.power(base, ks.astype(np.float64)) > xs
            if not high.any():
                break
            ks[high] -= 1
    return ks


def assert_matches_two_loop_quantize(xs, beta):
    got, want = qz.quantize_array(xs, beta), two_loop_quantize(xs, beta)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=1, max_size=40),
    st.sampled_from((0.1, 0.025, 1e-3, 1.0)),
)
def test_quantize_array_matches_the_two_loop_oracle_on_random_floats(values, beta):
    assert_matches_two_loop_quantize(values, beta)


@pytest.mark.parametrize("beta", (0.1, 0.025, 1e-3))
def test_quantize_array_matches_the_two_loop_oracle_at_and_beside_exact_powers(beta):
    # More than one piece, so pieces with and without a correction step
    # meet; and a strided 2-d view, as the engine's draws could be.
    grid = qz.dequantize_array(np.arange(-4000, 4000), beta)
    xs = np.concatenate([grid, np.nextafter(grid, 0.0), np.nextafter(grid, np.inf)])
    assert xs.size > qz._PIECE
    assert_matches_two_loop_quantize(xs, beta)
    assert_matches_two_loop_quantize(xs.reshape(8, -1)[:, ::3], beta)
    assert_matches_two_loop_quantize(xs[:1], beta)


def test_quantize_array_of_empty_input_is_empty():
    for xs in ([], np.empty((0, 3)), np.empty((2, 0))):
        assert_matches_two_loop_quantize(xs, 0.1)


def test_quantize_array_builds_no_table_over_an_unbounded_span():
    # A table over this span, about 1.4e12 powers, could not be allocated,
    # so a result shows that none was built.  The exponents are the
    # two-loop oracle's (its run takes about a second).
    xs = [1e-300, 1e300]
    ks = qz.quantize_array(xs, 1e-9)
    assert ks.tolist() == [-690775471089, 690775471088]
    for k, x in zip(ks.tolist(), xs):
        below, above = qz.dequantize_array([k, k + 1], 1e-9)
        assert below <= x < above


class _LogOff:
    """numpy as _log_quantize uses it, with ln x moved by offs[i] ln(1+beta)
    at position i of each piece, so that the estimate of that exponent lands
    offs[i] away and the loops take that many steps; it records the length
    of each array np.power evaluates."""

    def __init__(self, beta, offs):
        self.beta, self.offs, self.powers = beta, offs, []

    def __getattr__(self, name):
        return getattr(np, name)

    def log(self, x):
        shift = self.offs[: np.size(x)] * np.log1p(self.beta) if np.ndim(x) else 0.0
        return np.log(x) + shift

    def power(self, base, es):
        self.powers.append(len(es))
        return np.power(base, es)


@pytest.mark.parametrize("beta", (0.1, 1e-3))
@pytest.mark.parametrize("off", (-3, -2, -1, 0, 1, 2, 3, "mixed"))
@pytest.mark.parametrize("spans", ("narrow", "wide", "both"))
def test_quantize_array_matches_the_two_loop_oracle_off_its_tables(beta, off, spans, monkeypatch):
    # The log path, which quantize_array takes for its bucket edges and for
    # inputs whose bucket table would outsize them.  Pieces of 16 values:
    # narrow ones, whose exponents 0..4 (plus off) get a table of at most 14
    # powers, and wide ones, whose span is wider than the piece and gets none.  The values sit between grid points, so
    # an estimate off by one step is corrected within the table, and one off
    # by two or more steps leaves it and evaluates its piece with np.power.
    rng = np.random.default_rng(5)
    narrow = qz.dequantize_array(rng.integers(0, 5, 64) + 0.5, beta)
    wide = 10.0 ** rng.uniform(-300, 300, 64)
    xs = {"narrow": narrow, "wide": wide, "both": np.concatenate([wide, narrow])}[spans]
    want = two_loop_quantize(xs, beta)
    offs = rng.integers(-3, 4, 16) if off == "mixed" else np.full(16, off)
    monkeypatch.setattr(qz, "_PIECE", 16)
    monkeypatch.setattr(qz, "np", logged := _LogOff(beta, offs))
    got = qz._log_quantize(xs, 1.0 + beta)
    monkeypatch.undo()
    assert got.tobytes() == want.tobytes()
    fell_back = 16 in logged.powers  # a table never holds more than 14 powers
    assert fell_back == (spans != "narrow" or off not in (-1, 0, 1))


TINY, MAX = np.finfo(np.float64).tiny, np.finfo(np.float64).max
LOOKUP_BETAS = (1e-4, 0.025, 0.1, 1.0, 1e3, 1e100)


def bucket_shift(beta):
    """52 - m: the low bits that quantize_array's buckets ignore, with
    m = ceil(-log2 log2(1+beta)) + 1 (negative m merges binades)."""
    return 51 - math.ceil(-math.log2(math.log2(1.0 + beta)))


def quantize_spied(xs, beta, monkeypatch):
    """quantize_array(xs, beta), and whether it took the log path on xs
    itself rather than on its bucket edges."""
    seen, log_quantize = [], qz._log_quantize
    monkeypatch.setattr(qz, "_log_quantize", lambda flat, base: seen.append(flat) or log_quantize(flat, base))
    got = qz.quantize_array(xs, beta)
    monkeypatch.undo()
    return got, any(np.shares_memory(flat, xs) for flat in seen)


def assert_looked_up(xs, beta, monkeypatch):
    """xs, repeated until its bucket table has no more entries than it has
    values, rounds by lookup exactly as the two-loop oracle does."""
    js = np.asarray(xs, dtype=np.float64).view(np.int64) >> bucket_shift(beta)
    xs = np.tile(xs, int(js.max() - js.min()) // len(xs) + 1)
    got, fell_back = quantize_spied(xs, beta, monkeypatch)
    assert not fell_back
    assert got.tobytes() == two_loop_quantize(xs, beta).tobytes()


@pytest.mark.parametrize("beta", LOOKUP_BETAS)
def test_lookup_matches_the_two_loop_oracle_at_and_beside_exact_powers(beta, monkeypatch):
    # Every normal power within 2,000 exponents of 1 (from 1e-304 to 1e304
    # at the larger betas).
    span = min(2000, int(700 / math.log1p(beta)))
    grid = qz.dequantize_array(np.arange(-span, span + 1), beta)
    assert_looked_up(np.concatenate([grid, np.nextafter(grid, 0.0), np.nextafter(grid, np.inf)]),
                     beta, monkeypatch)


@pytest.mark.parametrize("beta", LOOKUP_BETAS)
def test_lookup_matches_the_two_loop_oracle_at_and_beside_bucket_edges(beta, monkeypatch):
    # The lower edges of up to 4,001 buckets around 1.  A bucket that holds
    # the least normal float has edge 0 when buckets merge binades (beta >= 3),
    # so the edges start one bucket above it.
    shift = bucket_shift(beta)
    one, lowest, highest = (int(np.float64(x).view(np.int64)) >> shift for x in (1.0, TINY, MAX))
    edges = (np.arange(max(one - 2000, lowest + 1), min(one + 2000, highest) + 1) << shift).view(np.float64)
    assert_looked_up(np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)]),
                     beta, monkeypatch)


@pytest.mark.parametrize("beta", LOOKUP_BETAS)
@pytest.mark.parametrize("end", (TINY, MAX), ids=("least-normal", "largest-finite"))
def test_lookup_matches_the_two_loop_oracle_at_the_ends_of_the_normal_floats(beta, end, monkeypatch):
    # The end, its inner neighbour and the 20 powers nearest it with their
    # neighbours.  The bucket of the largest finite float has +inf as its
    # upper edge, and at beta >= 3 the least normal float's has 0 below it.
    k = int(two_loop_quantize([end], beta)[0])
    with np.errstate(over="ignore"):  # at beta = 1e100 some of the 20 are past the largest float
        grid = qz.dequantize_array(k + np.arange(20) * (1 if end == TINY else -1), beta)
    xs = np.concatenate([[end, np.nextafter(end, 1.0)], grid, np.nextafter(grid, 0.0),
                         np.nextafter(grid, np.inf)])
    assert_looked_up(xs[(TINY <= xs) & (xs <= MAX)], beta, monkeypatch)


@pytest.mark.parametrize("beta, looked_up", [(2.0**-43, True), (2.0**-44, False), (2.0**-50, False),
                                             (3 * 2.0**-52, False), (2.0**-52, False)])
def test_quantize_array_at_a_beta_of_a_few_ulps_matches_the_two_loop_oracle(beta, looked_up, monkeypatch):
    # Buckets of 2^8 floats or more (beta >= 2^-43 or so) are looked up;
    # below that np.power's error could move a grid point across a bucket,
    # so the log path rounds, here on inputs repeated until their table is
    # small enough for a lookup.  The betas are exact in floats, so the
    # oracle's log1p(beta) is close to ln(1 + beta) and its loops take few steps.
    k = int(two_loop_quantize([2.0], beta)[0])
    grid = qz.dequantize_array(k + np.arange(-100, 100), beta)
    xs = np.tile(np.concatenate([grid, np.nextafter(grid, 0.0), np.nextafter(grid, np.inf)]), 4)
    got, fell_back = quantize_spied(xs, beta, monkeypatch)
    assert fell_back != looked_up
    assert got.tobytes() == two_loop_quantize(xs, beta).tobytes()


@pytest.mark.parametrize("xs, beta, looked_up", [
    # At beta = 1 a bucket is half a binade: 1, 1.5, 2, 3 and 4 begin the
    # five buckets from 1 to 4.
    ([1.0, 1.0, 1.0, 1.0, 4.0], 1.0, True),
    ([1.0, 1.0, 1.0, 4.0], 1.0, False),
    (np.linspace(1.0, 2.0, 1000), 0.1, True),
    (np.tile([1e-300, 1e300], 1000), 0.1, False),
], ids=("as-many-entries-as-values", "one-entry-more", "one-binade", "all-binades"))
def test_a_bucket_table_with_more_entries_than_values_takes_the_log_path(xs, beta, looked_up, monkeypatch):
    xs = np.asarray(xs)
    got, fell_back = quantize_spied(xs, beta, monkeypatch)
    assert fell_back != looked_up
    assert got.tobytes() == two_loop_quantize(xs, beta).tobytes()


# The engine reads represented values from one table over a trial's exponent
# span; the workloads' beta is 0.025.  The spans cross 0 or not, and have odd
# and even lengths down to one point.
@pytest.mark.parametrize("beta", (0.025, 0.05, 0.1, 1e-4))
@pytest.mark.parametrize("lo, hi", [(-573, 106), (-3000, 3000), (-2, 9), (-1, 0), (3, 17),
                                    (-40, -40), (0, 0)])
def test_a_gather_from_one_grid_table_is_dequantize_array(beta, lo, hi):
    grid = qz.dequantize_array(np.arange(lo, hi + 1), beta)
    ks = np.random.default_rng(hi - lo).integers(lo, hi + 1, size=10_001)
    rows = ks[:10_000].reshape(100, 100)
    # Whole, odd-length, strided and one-element inputs; rows and columns
    # of a matrix, as the engine gathers an agent's row.
    for sub in (ks, ks[:999], ks[::3], ks[1::2], ks[::-1], ks[:1], rows[17], rows[:, 4],
                np.arange(lo, hi + 1)):
        assert grid[sub - lo].tobytes() == qz.dequantize_array(sub, beta).tobytes()
    for k in ks[:200].tolist():
        assert grid[k - lo].tobytes() == qz.dequantize_array([k], beta).tobytes()


# ---------------------------------------------------------------------------
# count_levels


def test_count_levels_degenerate_interval_is_one():
    assert qz.count_levels(3.7, 3.7, 0.2) == 1


def test_count_levels_powers_of_two():
    # beta=1: exponents 0..3 cover [1, 8].
    assert qz.count_levels(1.0, 8.0, 1.0) == 4


def test_count_levels_matches_dense_grid_oracle():
    c, d, beta = 0.001, 10.0, 0.05
    grid = np.linspace(c, d, 10**6)
    observed = len(np.unique(qz.quantize_array(grid, beta)))
    assert qz.count_levels(c, d, beta) == observed


def test_count_levels_rejects_bad_interval():
    with pytest.raises(ValueError):
        qz.count_levels(2.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        qz.count_levels(0.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# admissible interval


def interval_params(eta, ell):
    return ProtocolParams(epsilon=0.3, eta=eta, a=0.0, b=1.0, ell=ell)


def test_admissible_interval_small_case():
    z, upper = qz.admissible_interval(interval_params(0.4, 1), 1)
    assert z == pytest.approx(0.4 / 12.0, rel=1e-12)
    assert upper == pytest.approx(math.log(30.0), rel=1e-12)


def test_admissible_interval_z_scales_inversely_with_n():
    z1, _ = qz.admissible_interval(interval_params(0.2, 100), 4)
    z2, _ = qz.admissible_interval(interval_params(0.2, 100), 8)
    assert z1 == pytest.approx(2.0 * z2, rel=1e-12)


def test_admissible_interval_protocol_scale_case():
    # eta/(4 (b-a+2) ell n) with eta=0.2, ell=3596, n=8, a=0, b=1.
    z, upper = qz.admissible_interval(interval_params(0.2, 3596), 8)
    assert z == pytest.approx(0.2 / (4 * 3 * 3596 * 8), rel=1e-12)
    assert z == pytest.approx(5.7934742e-7, rel=1e-6)
    assert upper == pytest.approx(14.361363, rel=1e-6)


# ---------------------------------------------------------------------------
# algebraic properties


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False),
    st.sampled_from(BETAS),
)
def test_bracketing_property(x, beta):
    v = qz.dequantize_array([qz.quantize(x, beta)], beta)[0]
    assert v <= x < (1.0 + beta) * v


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False),
    st.sampled_from(BETAS),
)
def test_monotone_property(x, y, beta):
    lo, hi = sorted((x, y))
    assert qz.quantize(lo, beta) <= qz.quantize(hi, beta)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False),
    st.sampled_from(BETAS),
)
def test_idempotence_property(x, beta):
    k = qz.quantize(x, beta)
    assert qz.quantize(float(qz.dequantize_array([k], beta)[0]), beta) == k


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from(BETAS),
)
def test_min_commutes_with_rounding(values, beta):
    assert qz.quantize(min(values), beta) == min(qz.quantize(v, beta) for v in values)


def test_tail_probability_of_exponentials_outside_interval():
    # P(X not in [z, ln 1/z]) <= (1 + rate) z for X ~ Exp(rate), rate >= 1.
    z = 0.01
    upper = math.log(1.0 / z)
    reps = 100_000
    for rate in (1.0, 5.0):
        stream = RngStream(812, purpose=f"tail-{rate}")
        xs = -np.log(stream.uniforms(reps)) / rate
        freq = float(np.mean((xs < z) | (xs > upper)))
        p = (1.0 + rate) * z
        assert freq <= p + 3.0 * math.sqrt(p * (1.0 - p) / reps)
