"""Tests for deterministic randomness utilities."""

import warnings

import numpy as np
import pytest

from repro.sim import rng as rng_module
from repro.sim.rng import RngStreams, hash_noise, hash_uniform


class TestRngStreams:
    def test_same_key_returns_cached_generator(self):
        streams = RngStreams(1)
        assert streams.get("a") is streams.get("a")

    def test_different_keys_give_different_draws(self):
        streams = RngStreams(1)
        a = streams.get("a").random(8)
        b = streams.get("b").random(8)
        assert not np.allclose(a, b)

    def test_same_seed_reproduces_draws(self):
        a = RngStreams(7).get("traffic").random(16)
        b = RngStreams(7).get("traffic").random(16)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStreams(7).get("traffic").random(16)
        b = RngStreams(8).get("traffic").random(16)
        assert not np.allclose(a, b)

    def test_stream_isolation_from_draw_order(self):
        """Drawing from one stream never perturbs another stream."""
        s1 = RngStreams(3)
        s1.get("x").random(1000)  # consume a lot from x
        y_after = s1.get("y").random(4)
        s2 = RngStreams(3)
        y_fresh = s2.get("y").random(4)
        np.testing.assert_array_equal(y_after, y_fresh)

    def test_seed_for_is_stable(self):
        assert RngStreams(1).seed_for("k") == RngStreams(1).seed_for("k")

    def test_seed_for_differs_by_key_and_root(self):
        assert RngStreams(1).seed_for("k") != RngStreams(1).seed_for("k2")
        assert RngStreams(1).seed_for("k") != RngStreams(2).seed_for("k")


    def test_a_negative_root_is_rejected_up_front(self):
        """Regression: it used to fail on the first `get`, inside numpy."""
        with pytest.raises(ValueError, match="non-negative integer, got -3"):
            RngStreams(-3)


def _numpy_stream(root: int, key_hash: int) -> np.random.Generator:
    """numpy's own constructor of a stream: the oracle of `get_many`."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=root, spawn_key=(key_hash,))))


def _same_draws(a: np.random.Generator, b: np.random.Generator) -> None:
    """Draw for draw over the calls `build_underlay` and `DemandModel`
    make, with a scalar call after every array to catch a lost word."""
    for draw in (lambda g: g.uniform(1.5, 2.6),
                 lambda g: g.pareto(1.6),
                 lambda g: g.poisson(12.5),
                 lambda g: g.random(7),
                 lambda g: g.exponential(8.0, size=5),
                 lambda g: g.lognormal(5.9, 1.4, size=3),
                 lambda g: g.integers(0, 2**63, size=4),
                 lambda g: g.random()):
        assert np.array_equal(draw(a), draw(b))


#: Roots of one, two, three and five uint32 words, zero included.
ROOTS = [0, 7, 2**32 - 1, 2**32, 2**64 + 12345, 2**128, 2**130 + 99]


class TestGetMany:
    KEYS = [f"underlay.R{i}->R{i + 1}.internet" for i in range(40)] + [
        "traffic.HGH->SIN", "pricing", ""]

    @pytest.mark.parametrize("root", ROOTS)
    def test_streams_draw_what_numpy_constructs(self, root):
        generators, seeds = RngStreams(root).get_many(self.KEYS)
        for key, generator, seed in zip(self.KEYS, generators, seeds):
            _same_draws(generator,
                        _numpy_stream(root, rng_module._key_to_seed(key)))
            assert int(seed) == RngStreams(root).seed_for(key)
        assert seeds.dtype == np.uint64

    @pytest.mark.parametrize("root", ROOTS)
    @pytest.mark.parametrize("key_hash", [
        0, 1, 0xFFFFFFFF, 1 << 32, 0xFFFFFFFF00000000, 2**64 - 1])
    def test_hashes_with_a_zero_word(self, root, key_hash, monkeypatch):
        """A hash below 2**32 is one uint32 word of spawn key, not two;
        zero is the single word 0."""
        real = rng_module._key_to_seed
        monkeypatch.setattr(
            rng_module, "_key_to_seed",
            lambda key: key_hash if key == "odd" else real(key))
        keys = ["a", "odd", "b"]
        generators, seeds = RngStreams(root).get_many(keys)
        for key, generator in zip(keys, generators):
            _same_draws(generator,
                        _numpy_stream(root, rng_module._key_to_seed(key)))
        assert int(seeds[1]) == RngStreams(root).seed_for("odd")

    def test_streams_are_the_cached_ones(self):
        streams = RngStreams(5)
        first = streams.get("b")
        first.random(3)
        generators, __ = streams.get_many(["a", "b", "a"])
        assert generators[1] is first
        assert generators[0] is generators[2] is streams.get("a")

    def test_no_keys(self):
        generators, seeds = RngStreams(5).get_many([])
        assert generators == [] and seeds.shape == (0,)

    def test_a_sequence_that_hashes_otherwise_is_caught(self, monkeypatch):
        """The first new key is checked against numpy's own sequence."""
        monkeypatch.setattr(rng_module, "_INIT_B", rng_module._INIT_B ^ 1)
        with pytest.raises(RuntimeError, match="SeedSequence"):
            RngStreams(5).get_many(["a"])


class TestHashNoise:
    def test_uniform_range(self):
        u = hash_uniform(42, np.arange(10000))
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_uniform_mean_and_spread(self):
        u = hash_uniform(42, np.arange(100000))
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(u.std() - np.sqrt(1 / 12)) < 0.01

    def test_deterministic_in_time(self):
        a = hash_uniform(7, np.array([3.0, 5.0, 9.0]))
        b = hash_uniform(7, np.array([9.0, 3.0, 5.0]))
        assert a[0] == b[1] and a[1] == b[2] and a[2] == b[0]

    def test_fractional_times_floor_to_same_value(self):
        assert hash_uniform(1, 4.2) == hash_uniform(1, 4.9)
        assert hash_uniform(1, 4.0) != hash_uniform(1, 5.0)

    def test_salt_changes_values(self):
        t = np.arange(100)
        assert not np.allclose(hash_uniform(1, t, salt=0),
                               hash_uniform(1, t, salt=1))

    def test_seed_changes_values(self):
        t = np.arange(100)
        assert not np.allclose(hash_uniform(1, t), hash_uniform(2, t))

    def test_a_salt_array_is_one_call_per_salt(self):
        seeds = np.array([[3], [2 ** 63 + 7]], dtype=np.uint64)
        salts = np.array([3, 4, 0], dtype=np.uint64).reshape(3, 1, 1)
        for t in (np.arange(5.0), 12345):
            stacked = hash_uniform(seeds, t, salt=salts)
            for k, salt in enumerate((3, 4, 0)):
                np.testing.assert_array_equal(
                    stacked[k], hash_uniform(seeds, t, salt=salt))
        assert hash_uniform(9, 2, salt=np.array([5], dtype=np.uint64)) \
            == hash_uniform(9, 2, salt=5)

    def test_noise_is_standard_normal(self):
        z = hash_noise(11, np.arange(200000))
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_noise_deterministic(self):
        t = np.arange(50)
        np.testing.assert_array_equal(hash_noise(3, t), hash_noise(3, t))

    def test_scalar_input_gives_scalar_like_output(self):
        v = hash_uniform(1, 10)
        assert np.ndim(v) == 0

    def test_no_correlation_between_adjacent_times(self):
        z = hash_noise(9, np.arange(100000))
        corr = np.corrcoef(z[:-1], z[1:])[0, 1]
        assert abs(corr) < 0.02


# --------------------------------------------------------------------------
# Known answers.  Every simulated outcome is a function of these bits, so
# the statistics above are not enough: a kernel rewrite that is off by one
# ulp, or wraps differently for one input class, must fail here.  Values
# are ``float.hex()`` strings recorded at PR 16's head, before the kernel
# was rewritten to work in place.
# --------------------------------------------------------------------------
_U = np.uint64
_KAT_CASES = {
    "int_seed": lambda f: f(42, np.array([0, 1, 2, 1000])),
    "scalar_t": lambda f: f(42, 7.0),
    "wide_int_seed": lambda f: f(2**64 - 1, np.array([0.0, 5.0])),
    "negative_int_seed": lambda f: f(-3, np.array([0.0, 5.0])),
    "seed_over_64_bits": lambda f: f(2**70 + 5, np.array([3.0])),
    "negative_t": lambda f: f(9, np.array([-1.0, -1.5, -1000.25])),
    "fractional_t": lambda f: f(9, np.array([4.2, 4.9, 5.0])),
    "large_t": lambda f: f(9, np.array([1e9, 2.0**40 + 0.5,
                                        86400.0 * 365])),
    "salt_1": lambda f: f(9, np.array([0, 1]), salt=1),
    "salt_7": lambda f: f(9, np.array([0, 1]), salt=7),
    "salt_31": lambda f: f(9, np.array([0, 1]), salt=31),
    "salt_big": lambda f: f(9, np.array([0, 1]), salt=2**20 + 3),
    "seed_array_scalar_t": lambda f: f(
        np.array([1, 2**63, 2**64 - 1], dtype=_U), 12.0, salt=2),
    "seed_array_t_array": lambda f: f(
        np.array([1, 2**63, 2**64 - 1], dtype=_U),
        np.array([0.0, -2.5, 3e6]), salt=2),
    "broadcast_2d": lambda f: f(
        np.array([[5], [6], [2**64 - 7]], dtype=_U),
        np.array([[0.0, 1.0, 86399.0, -4.0]]), salt=3),
}

_HASH_UNIFORM_KAT = {
    'int_seed': ((4,), [
        '0x1.7bae644c5fd6dp-1', '0x1.d42d19f1d0d40p-6',
        '0x1.2131ab205c05ap-2', '0x1.60b881573b910p-1']),
    'scalar_t': ((), [
        '0x1.8291a43542b78p-2']),
    'wide_int_seed': ((2,), [
        '0x1.c9b2e2ee36ca5p-1', '0x1.8b8755fb7bf7ep-1']),
    'negative_int_seed': ((2,), [
        '0x1.eebe09976b434p-1', '0x1.262abdf4d5800p-1']),
    'seed_over_64_bits': ((1,), [
        '0x1.0cb3360e339eep-2']),
    'negative_t': ((3,), [
        '0x1.ff2451ff2a928p-2', '0x1.5f7a02b6ebde2p-1',
        '0x1.3f8f1d2a82534p-3']),
    'fractional_t': ((3,), [
        '0x1.d51ce11586625p-1', '0x1.d51ce11586625p-1',
        '0x1.146ad9e29ff60p-6']),
    'large_t': ((3,), [
        '0x1.8e05d2cd44780p-1', '0x1.77a981ca5839ap-2',
        '0x1.df44c6afeb488p-3']),
    'salt_1': ((2,), [
        '0x1.8082727f2a3c6p-2', '0x1.52382c23b0a9bp-1']),
    'salt_7': ((2,), [
        '0x1.5fa4705794e74p-3', '0x1.9456084d0f38ep-1']),
    'salt_31': ((2,), [
        '0x1.e82c208b016a4p-1', '0x1.76681c56dfebap-2']),
    'salt_big': ((2,), [
        '0x1.c720d4e44fa4ep-1', '0x1.ff589c96d093cp-1']),
    'seed_array_scalar_t': ((3,), [
        '0x1.2cc58492e1366p-2', '0x1.a9db6ffeb43e5p-1',
        '0x1.52cf7fd8a23ddp-1']),
    'seed_array_t_array': ((3,), [
        '0x1.4a5acf19124fdp-1', '0x1.4f917140709c5p-1',
        '0x1.f0876e044e423p-1']),
    'broadcast_2d': ((3, 4), [
        '0x1.1b227cf590033p-1', '0x1.d6bad32a4606ap-2',
        '0x1.b28e50224cd80p-7', '0x1.340d948910620p-3',
        '0x1.a734bc657aa30p-2', '0x1.c26fa22ebcee2p-2',
        '0x1.dff92a25f57d7p-1', '0x1.e9b90518bdf86p-1',
        '0x1.5a5666980a624p-2', '0x1.e22f1d9d8163ap-1',
        '0x1.93f005ba854e4p-1', '0x1.134f5250d2d45p-1']),
}

_HASH_NOISE_KAT = {
    'int_seed': ((4,), [
        '-0x1.a45b71df603cfp-1', '0x1.c612f468bb2f9p+0',
        '-0x1.eda8132ad2490p+0', '-0x1.8e1fea5b302abp-2']),
    'scalar_t': ((), [
        '-0x1.706fc6c38235cp-5']),
    'wide_int_seed': ((2,), [
        '0x1.c6af967037487p-2', '0x1.ee05d3b65f6e0p+0']),
    'negative_int_seed': ((2,), [
        '0x1.60dc2514f5e5bp-3', '-0x1.02d3da2ea5e06p+0']),
    'seed_over_64_bits': ((1,), [
        '-0x1.c6244f95505c6p+0']),
    'negative_t': ((3,), [
        '0x1.2812eb7c2d350p+0', '0x1.05a41e5234ea6p-3',
        '-0x1.c256268278893p-1']),
    'fractional_t': ((3,), [
        '0x1.2c38c10ea8ccdp+0', '0x1.2c38c10ea8ccdp+0',
        '-0x1.2eeb353b47742p+0']),
    'large_t': ((3,), [
        '-0x1.8377ac2c07c50p-2', '-0x1.7e476a4afb059p-4',
        '-0x1.e941ff751bcd5p-1']),
    'salt_1': ((2,), [
        '0x1.dc743435162dap-3', '0x1.81dec52a909afp-3']),
    'salt_7': ((2,), [
        '-0x1.7d2eab92ca6afp-2', '0x1.78d691b10785dp-5']),
    'salt_31': ((2,), [
        '-0x1.30936eda1257ep+0', '-0x1.510265448f72bp+0']),
    'salt_big': ((2,), [
        '0x1.427abdb2bb0a2p-1', '-0x1.d70d8e3ef5716p-8']),
    'seed_array_scalar_t': ((3,), [
        '-0x1.2891177d0f68dp-2', '-0x1.28d555d738816p-1',
        '-0x1.b3db2fefb42d5p-6']),
    'seed_array_t_array': ((3,), [
        '-0x1.8671b84ba9c56p+0', '-0x1.ad4b6c9929b58p-1',
        '-0x1.d438ce434681cp-2']),
    'broadcast_2d': ((3, 4), [
        '-0x1.42cc24b72160dp-1', '-0x1.b64100e21ca24p-2',
        '-0x1.00bc90fe0f6c3p+0', '-0x1.d90721f39fbb6p+0',
        '-0x1.5ad39b5059cd3p-2', '0x1.f420013ecaefbp-2',
        '-0x1.a97f1750a2e2dp+0', '0x1.55ccc7e4603d9p-1',
        '-0x1.cb604de29ce26p-1', '-0x1.1d37279e1cc37p+0',
        '-0x1.569a7e77cee3bp+0', '-0x1.37db5ac57e704p+0']),
}


class TestKnownAnswers:
    @pytest.mark.parametrize("case", sorted(_KAT_CASES))
    @pytest.mark.parametrize("fn, table", [
        (hash_uniform, _HASH_UNIFORM_KAT), (hash_noise, _HASH_NOISE_KAT)],
        ids=["hash_uniform", "hash_noise"])
    def test_bits(self, fn, table, case):
        shape, expected = table[case]
        with warnings.catch_warnings():
            # uint64 wrap-around is the algorithm; it must stay silent.
            warnings.simplefilter("error")
            out = np.asarray(_KAT_CASES[case](fn))
        assert out.shape == shape
        assert [float(v).hex() for v in out.ravel()] == expected

    def test_table_covers_every_case(self):
        assert set(_HASH_UNIFORM_KAT) == set(_KAT_CASES)
        assert set(_HASH_NOISE_KAT) == set(_KAT_CASES)

    def test_time_array_is_not_modified(self):
        t = np.array([3.0, 4.5, -2.0])
        seeds = np.array([7, 8, 9], dtype=_U)
        hash_uniform(seeds, t, salt=5)
        np.testing.assert_array_equal(t, [3.0, 4.5, -2.0])
        np.testing.assert_array_equal(seeds, np.array([7, 8, 9], dtype=_U))

    def test_integer_time_array_is_not_modified(self):
        t = np.arange(4)
        hash_uniform(3, t)
        np.testing.assert_array_equal(t, np.arange(4))
