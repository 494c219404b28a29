import numpy as np
import pytest
from numpy.testing import assert_array_equal

from liargrid import rng


def _mix64_pyint(z):
    """Independent pure-int reimplementation of the 64-bit finalizer."""
    mask = (1 << 64) - 1
    z &= mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def _reference_gaussians(keys, base_counters):
    """The polar sampler as a plain attempt loop over the draws still
    pending; also returns the attempt at which each draw was accepted."""
    keys, base = np.broadcast_arrays(np.asarray(keys, dtype=np.uint64),
                                     np.asarray(base_counters, dtype=np.uint64))
    kf, bf = keys.reshape(-1), base.reshape(-1)
    out = np.empty(kf.size)
    accepted_at = np.full(kf.size, -1)
    pending = np.arange(kf.size)
    for attempt in range(64):
        if pending.size == 0:
            break
        c0 = bf[pending] + np.uint64(2 * attempt)
        v1 = 2.0 * rng.uniforms(kf[pending], c0) - 1.0
        v2 = 2.0 * rng.uniforms(kf[pending], c0 + np.uint64(1)) - 1.0
        s = v1 * v1 + v2 * v2
        ok = (s > 0.0) & (s < 1.0)
        sa = s[ok]
        out[pending[ok]] = v1[ok] * np.sqrt(-2.0 * np.log(sa) / sa)
        accepted_at[pending[ok]] = attempt
        pending = pending[~ok]
    assert pending.size == 0
    return out.reshape(keys.shape), accepted_at.reshape(keys.shape)


class TestMix64:
    def test_matches_pure_python_oracle(self):
        for z in [0, 1, 2**63, 0xDEADBEEF, (1 << 64) - 1, 123456789]:
            got = int(rng.mix64(np.uint64(z)))
            assert got == _mix64_pyint(z)

    def test_distinct_counters_distinct_outputs(self):
        key = rng.derive_key(42)
        vals = rng.raw_u64(key, np.arange(1000, dtype=np.uint64))
        assert len(set(vals.tolist())) == 1000


class TestDeriveKey:
    def test_deterministic(self):
        assert rng.derive_key(7, (1, 2)) == rng.derive_key(7, (1, 2))
        assert rng.derive_key(7, (1, 2)) != rng.derive_key(7, (2, 1))

    def test_array_ids_match_scalar_loop(self):
        ids = np.arange(16)
        vec = rng.derive_key(99, (3, ids))
        scalars = [rng.derive_key(99, (3, int(i))) for i in ids]
        assert_array_equal(vec, scalars)


class TestStreams:
    def test_uniforms_in_unit_interval(self):
        key = rng.derive_key(5)
        u = rng.uniforms(key, np.arange(10_000, dtype=np.uint64))
        assert u.min() >= 0.0
        assert u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.02

    def test_gaussian_moments(self):
        draws = rng.frame_gaussians(
            np.array([rng.derive_key(11, (0,))], dtype=np.uint64),
            np.arange(100_000),
        ).ravel()
        assert abs(draws.mean()) < 0.02
        assert abs(draws.std() - 1.0) < 0.02
        # tails exist but are sane
        assert np.abs(draws).max() < 7.0

    def test_frame_stream_prefix_property(self):
        site_keys = rng.derive_key(3, (2, np.arange(5)))
        short = rng.frame_gaussians(site_keys, np.arange(50))
        long = rng.frame_gaussians(site_keys, np.arange(80))
        assert_array_equal(long[:50], short)

    def test_frame_uniform_prefix_property(self):
        site_keys = rng.derive_key(3, (2, np.arange(4)))
        short = rng.frame_uniforms(site_keys, np.arange(30))
        long = rng.frame_uniforms(site_keys, np.arange(64))
        assert_array_equal(long[:30], short)

    def test_sites_decorrelated(self):
        site_keys = rng.derive_key(1, (0, np.arange(2)))
        draws = rng.frame_gaussians(site_keys, np.arange(50_000))
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(corr) < 0.02

    def test_frame_gaussians_match_reference_loop_across_blocks(self):
        site_keys = rng.derive_key(17, (2, np.arange(37)))
        want, accepted_at = _reference_gaussians(
            site_keys[None, :], rng._frame_base(np.arange(700))[:, None])
        assert accepted_at.max() >= 2
        cuts = [0, 1, 7, 256, 257, 512, 700]
        got = np.concatenate([rng.frame_gaussians(site_keys, np.arange(a, b))
                              for a, b in zip(cuts, cuts[1:])])
        assert got.tobytes() == want.tobytes()
