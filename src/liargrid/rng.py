"""Counter-based pseudo-random streams.

All randomness in this package flows through a stateless counter scheme:
a 64-bit key identifies a stream, a 64-bit counter indexes a position in
it, and every draw is a pure function of ``(key, counter)``.  Streams for
different purposes (kernel draws, per-site noise) are derived from a user
seed by folding small context ids into the key.  Because draws are
addressed rather than sequenced, results do not depend on evaluation
order, chunking, or thread count, and a simulation of ``T`` frames is a
bitwise prefix of a longer one with the same seed.

The bit mixer is the SplitMix64 finalizer.  Gaussian variates use the
Marsaglia polar method with an attempt-indexed counter layout so that
rejected proposals never shift the stream seen by other draws.

References
----------
Steele, Lea, Flood (2014), "Fast splittable pseudorandom number
generators", OOPSLA.
Marsaglia, Bray (1964), "A convenient method for generating normal
variables", SIAM Review.
"""

import numpy as np

from .errors import NumericalError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV53 = float(2.0 ** -53)

# counter layout for per-frame draws: bits [33..63] frame index,
# bits [1..32] rejection attempt, bit 0 polar component
FRAME_SHIFT = np.uint64(33)
_MAX_ATTEMPTS = 64


def _mix_into(z, tmp):
    """SplitMix64 finalizer of a uint64 array, in place; ``tmp`` is scratch
    of the same shape."""
    with np.errstate(over="ignore"):  # wraparound is the point
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, np.uint64(shift), out=tmp)
            z ^= tmp
            z *= mult
        np.right_shift(z, np.uint64(31), out=tmp)
        z ^= tmp
    return z


def mix64(z):
    """SplitMix64 finalizer on uint64 scalars or arrays."""
    z = np.array(z, dtype=np.uint64)
    return _mix_into(z, np.empty_like(z))[()]


def derive_key(seed, ids=()):
    """Derive a stream key from a seed and a sequence of context ids.

    Parameters
    ----------
    seed : int
        Base seed, taken modulo 2**64.
    ids : sequence of int or ndarray
        Context identifiers folded into the key one at a time.  An array
        entry broadcasts, yielding an array of keys, which is how per-site
        key vectors are produced in one shot.

    Returns
    -------
    numpy.uint64 or ndarray of uint64
    """
    key = mix64(np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF))
    for x in ids:
        x = np.asarray(x)
        if x.dtype.kind not in "iu":
            raise TypeError("context ids must be integers")
        with np.errstate(over="ignore"):
            key = mix64(key ^ (x.astype(np.uint64) + _GOLDEN))
    return key


def raw_u64(key, counters):
    """Word at position ``counters`` of stream ``key`` (both broadcast)."""
    c = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return mix64(np.asarray(key, dtype=np.uint64) + _GOLDEN * c)


def _signed_unit_into(words, tmp, out):
    """2u - 1 for the uniforms u of unmixed stream words, written to
    ``out``; ``words`` is mixed in place and ``tmp`` is scratch."""
    _mix_into(words, tmp)
    words >>= np.uint64(11)
    np.multiply(words, _INV53, out=out)
    out *= 2.0
    out -= 1.0
    return out


def uniforms(key, counters):
    """Uniform [0, 1) doubles with 53-bit mantissas, one per counter."""
    return (raw_u64(key, counters) >> np.uint64(11)).astype(np.float64) * _INV53


def _polar_into(keys, base, out):
    """One polar attempt on the uniform pairs at counters ``base`` and
    ``base + 1`` of streams ``keys`` (both broadcast to ``out.shape``).

    Writes v1 * sqrt(-2 log(s) / s) to ``out`` everywhere and returns the
    mask of accepted entries (0 < s < 1); elsewhere ``out`` is garbage.
    Every step runs in place on contiguous arrays of ``out``'s shape: a
    strided ``log`` may take another numpy loop and change the last bit.
    """
    shape = out.shape
    w0 = np.empty(shape, dtype=np.uint64)
    tmp = np.empty(shape, dtype=np.uint64)
    with np.errstate(over="ignore"):
        np.add(keys, base * _GOLDEN, out=w0)
        w1 = w0 + _GOLDEN  # the word at counter base + 1
    v1 = _signed_unit_into(w0, tmp, np.empty(shape))
    v2 = _signed_unit_into(w1, tmp, w0.view(np.float64))
    s = np.multiply(v1, v1)
    v2 *= v2
    s += v2
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(s, out=out)
        out *= -2.0
        out /= s
        np.sqrt(out, out=out)
    out *= v1
    return (s > 0.0) & (s < 1.0)


def gaussians(keys, base_counters):
    """Standard normal draws, one per (key, base counter) pair.

    Each draw runs the polar method on the uniform pair at counters
    ``base + 2a`` and ``base + 2a + 1`` for attempts ``a = 0, 1, ...``
    and keeps the first accepted component.  ``keys`` and
    ``base_counters`` broadcast against each other.

    Attempt 0 runs over the whole block in place; only its rejected
    draws (about 21%) go through the later attempts.

    Returns
    -------
    ndarray of float64 with the broadcast shape.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    base = np.asarray(base_counters, dtype=np.uint64)
    shape = np.broadcast_shapes(keys.shape, base.shape)
    out = np.empty(shape)
    ok = _polar_into(keys, base, out)
    pending = np.flatnonzero(~ok)
    where = np.unravel_index(pending, shape)
    kf = np.broadcast_to(keys, shape)[where]
    bf = np.broadcast_to(base, shape)[where]
    of = out.reshape(-1)
    for attempt in range(1, _MAX_ATTEMPTS):
        if pending.size == 0:
            break
        with np.errstate(over="ignore"):
            c0 = bf + np.uint64(2 * attempt)
        draws = np.empty(pending.size)
        ok = _polar_into(kf, c0, draws)
        of[pending[ok]] = draws[ok]
        pending, kf, bf = pending[~ok], kf[~ok], bf[~ok]
    if pending.size:
        raise NumericalError(
            f"polar sampler failed to accept after {_MAX_ATTEMPTS} attempts "
            f"for {pending.size} draws"
        )
    return out


def _frame_base(frames):
    f = np.asarray(frames, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return f << FRAME_SHIFT


def frame_gaussians(site_keys, frames):
    """Standard normal noise for a block of frames.

    Parameters
    ----------
    site_keys : ndarray of uint64, shape (n,)
        One stream key per site.
    frames : ndarray of int, shape (B,)
        Absolute frame indices; each must be below 2**31.

    Returns
    -------
    ndarray, shape (B, n)
        Entry (b, s) depends only on (site_keys[s], frames[b]).
    """
    return gaussians(site_keys[None, :], _frame_base(frames)[:, None])


def frame_uniforms(site_keys, frames):
    """Uniform [0, 1) noise addressed like :func:`frame_gaussians`."""
    return uniforms(site_keys[None, :], _frame_base(frames)[:, None])
