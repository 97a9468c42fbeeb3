import numpy as np
import pytest

from opspectra.rng import SplitMix64

# Reference stream values computed from the published SplitMix64
# algorithm (Steele-Lea-Vigna); seed 0 starts 0xE220A8397B1DCDAF.
REF_SEED0 = [16294208416658607535, 7960286522194355700,
             487617019471545679, 17909611376780542444]
REF_SEED42 = [13679457532755275413, 2949826092126892291,
              5139283748462763858, 6349198060258255764]


def test_matches_reference_stream():
    assert [SplitMix64(0).next_u64() for _ in range(4)][0] == REF_SEED0[0]
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(4)] == REF_SEED0
    rng = SplitMix64(42)
    assert [rng.next_u64() for _ in range(4)] == REF_SEED42


def test_same_seed_same_stream():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert all(a.next_u64() == b.next_u64() for _ in range(100))


def test_uniform_range_and_determinism():
    rng = SplitMix64(7)
    vals = rng.uniforms(500, -1.5, 2.5)
    assert isinstance(vals, np.ndarray)
    assert np.all(vals >= -1.5) and np.all(vals < 2.5)
    again = SplitMix64(7).uniforms(500, -1.5, 2.5)
    assert np.array_equal(vals, again)


def test_normal_moments_roughly_standard():
    rng = SplitMix64(11)
    xs = np.array([rng.normal() for _ in range(4000)])
    assert abs(float(xs.mean())) < 0.08
    assert abs(float(xs.std()) - 1.0) < 0.08


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 17, 2**64 - 1])
def test_array_draws_match_scalar_draws(seed):
    # 10^6 uniforms, then 10^6 more uniforms' worth of normals
    vec, ref = SplitMix64(seed), SplitMix64(seed)
    n = 10**6
    u = vec.uniforms(n, -1.5, 2.5)
    assert np.array_equal(u, [ref.uniform(-1.5, 2.5) for _ in range(n)])
    z = vec.normals(n // 2)
    assert np.array_equal(z, [ref.normal() for _ in range(n // 2)])
    assert [vec.next_u64() for _ in range(3)] == [ref.next_u64() for _ in range(3)]


def test_u64s_is_the_scalar_stream():
    vec, ref = SplitMix64(0), SplitMix64(0)
    out = vec._u64s(4)
    assert out.dtype == np.uint64 and out.tolist() == REF_SEED0
    assert vec._u64s(0).shape == (0,) and vec.normals(0).shape == (0,)
    assert vec.next_u64() == [ref.next_u64() for _ in range(5)][-1]


GAMMA, MASK = 0x9E3779B97F4A7C15, 2**64 - 1


def _draws(rng, seed):
    """How many outputs rng has drawn since it was seeded with seed."""
    return ((rng._state - seed) * pow(GAMMA, -1, 2**64)) & MASK


@pytest.mark.parametrize("holes, draws", [((0,), 11), ((1,), 10),
                                          ((0, 7), 12), ((1, 3, 4), 11)])
def test_normals_match_scalar_draws_through_zero_uniforms(holes, draws,
                                                          monkeypatch):
    """A stream that outputs 0 (a uniform of exactly 0.0) at the given
    draw positions: a zero first uniform of a pair is rejected and
    redrawn, so the pairs after it shift; a zero second one is kept."""
    seed = 5
    real_u64s = SplitMix64._u64s
    hole_states = np.array([(seed + (h + 1) * GAMMA) & MASK for h in holes],
                           dtype=np.uint64)

    def holed(self, n):
        states = [(self._state + (i + 1) * GAMMA) & MASK for i in range(n)]
        out = real_u64s(self, n)
        out[np.isin(np.array(states, dtype=np.uint64), hole_states)] = 0
        return out

    monkeypatch.setattr(SplitMix64, "_u64s", holed)
    monkeypatch.setattr(SplitMix64, "next_u64",
                        lambda self: int(holed(self, 1)[0]))
    vec, ref = SplitMix64(seed), SplitMix64(seed)
    z = vec.normals(5)
    assert np.array_equal(z, [ref.normal() for _ in range(5)])
    assert _draws(vec, seed) == _draws(ref, seed) == draws
    assert np.all(np.isfinite(z))
