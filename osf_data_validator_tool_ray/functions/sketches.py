"""Mergeable sketches — the approximate tier for 10^12-row validation.

All sketches are commutative monoids: build one per block inside
``map_batches`` (vectorized over the batch), serialize to bytes, merge
either driver-side (few KB per block) or in a tree.  No shuffle is ever
needed for a sketch-backed check.

Implementations follow the public algorithms:
  * HyperLogLog (Flajolet et al. 2007) with the standard bias/small-range
    corrections
  * Count-Min (Cormode & Muthukrishnan 2005)
  * Bloom filter (Bloom 1970), double hashing (Kirsch & Mitzenmacher)
  * KLL compactor sketch (Karnin-Lang-Liberty 2016) — the one quantile
    sketch, rank error ~O(1/k) whatever the stream length
  * KS statistic between two KLL sketches; PSI over fixed baseline bins

Each sketch serializes to one fixed binary layout: a 4-byte tag, an
int64 header, then the numpy buffers whose sizes the header fixes.
``from_bytes`` reads nothing else (a stored baseline profile is outside
input): a wrong tag, an out-of-range header or a length that does not
match raises ``ValueError``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def _pack(tag: bytes, header, *buffers: np.ndarray) -> bytes:
    return b"".join([tag, np.asarray(header, dtype="<i8").tobytes(),
                     *(np.ascontiguousarray(b).tobytes() for b in buffers)])


class _Layout:
    """Reads back what ``_pack`` wrote, checking every size on the way."""

    def __init__(self, b: bytes, tag: bytes):
        self.b, self.pos = memoryview(b).cast("B"), len(tag)
        if bytes(self.b[:self.pos]) != tag:
            raise ValueError(f"not a {tag.decode()} sketch")

    def take(self, dtype: str, count: int) -> np.ndarray:
        dt = np.dtype(dtype)
        end = self.pos + dt.itemsize * int(count)
        if count < 0 or end > len(self.b):
            raise ValueError("sketch bytes are truncated")
        out = np.frombuffer(self.b[self.pos:end], dtype=dt).astype(dt.newbyteorder("="))
        self.pos = end
        return out

    def header(self, n: int, ok) -> list[int]:
        h = [int(x) for x in self.take("<i8", n)]
        if not ok(*h):
            raise ValueError(f"sketch header {h} is out of range")
        return h

    def done(self) -> None:
        if self.pos != len(self.b):
            raise ValueError(f"{len(self.b) - self.pos} trailing bytes after the sketch")


def _hash_u64(values) -> np.ndarray:
    arr = values.to_numpy() if isinstance(values, pd.Series) else np.asarray(values)
    if arr.dtype == object or arr.dtype.kind in "US":
        return pd.util.hash_array(np.asarray(arr, dtype=object),
                                  hash_key="0123456789abcdef").astype(np.uint64)
    return pd.util.hash_array(arr).astype(np.uint64)


# ---------------------------------------------------------------------------
# HyperLogLog
# ---------------------------------------------------------------------------

class HyperLogLog:
    def __init__(self, p: int = 14):
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def update(self, values) -> "HyperLogLog":
        h = _hash_u64(values)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = (h << np.uint64(self.p)) | np.uint64(1 << (self.p - 1))
        # rank = leading zeros of the remaining 64-p bits + 1
        lz = np.zeros(len(h), dtype=np.uint8)
        v = rest.copy()
        for shift in (32, 16, 8, 4, 2, 1):
            mask = v < (np.uint64(1) << np.uint64(64 - shift))
            lz[mask] += shift
            v[mask] = v[mask] << np.uint64(shift)
        rank = lz + 1
        np.maximum.at(self.registers, idx, rank)
        return self

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        assert self.p == other.p
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(np.exp2(-self.registers.astype(np.float64)))
        zeros = int(np.count_nonzero(self.registers == 0))
        if est <= 2.5 * m and zeros:
            est = m * np.log(m / zeros)          # linear counting
        return float(est)

    def to_bytes(self) -> bytes:
        return _pack(b"HLL1", [self.p], self.registers)

    @classmethod
    def from_bytes(cls, b: bytes) -> "HyperLogLog":
        r = _Layout(b, b"HLL1")
        s = cls(*r.header(1, lambda p: 4 <= p <= 18))
        s.registers = r.take("u1", s.m)
        r.done()
        return s


# ---------------------------------------------------------------------------
# Count-Min
# ---------------------------------------------------------------------------

class CountMin:
    def __init__(self, width: int = 2048, depth: int = 5, seed: int = 17):
        self.width, self.depth = width, depth
        rng = np.random.default_rng(seed)
        self.salts = rng.integers(1, 1 << 62, size=depth, dtype=np.uint64)
        self.table = np.zeros((depth, width), dtype=np.int64)

    def update(self, values) -> "CountMin":
        h = _hash_u64(values)
        for d in range(self.depth):
            hd = (h * np.uint64(0x9E3779B97F4A7C15) ^ self.salts[d])
            idx = (hd % np.uint64(self.width)).astype(np.int64)
            np.add.at(self.table[d], idx, 1)
        return self

    def merge(self, other: "CountMin") -> "CountMin":
        self.table += other.table
        return self

    def query(self, values) -> np.ndarray:
        h = _hash_u64(values)
        est = np.full(len(h), np.iinfo(np.int64).max, dtype=np.int64)
        for d in range(self.depth):
            hd = (h * np.uint64(0x9E3779B97F4A7C15) ^ self.salts[d])
            idx = (hd % np.uint64(self.width)).astype(np.int64)
            est = np.minimum(est, self.table[d][idx])
        return est

    def to_bytes(self) -> bytes:
        return _pack(b"CMS1", [self.width, self.depth], self.salts, self.table)

    @classmethod
    def from_bytes(cls, b: bytes) -> "CountMin":
        r = _Layout(b, b"CMS1")
        s = cls.__new__(cls)
        s.width, s.depth = r.header(2, lambda w, d: w >= 1 and d >= 1)
        s.salts = r.take("<u8", s.depth)
        s.table = r.take("<i8", s.depth * s.width).reshape(s.depth, s.width)
        r.done()
        return s


# ---------------------------------------------------------------------------
# Bloom filter
# ---------------------------------------------------------------------------

class BloomFilter:
    def __init__(self, n_bits: int = 1 << 20, k: int = 5):
        self.n_bits, self.k = n_bits, k
        self.bits = np.zeros(n_bits // 8 + 1, dtype=np.uint8)

    def _positions(self, values) -> np.ndarray:
        h1 = _hash_u64(values)
        pos = np.empty((self.k, len(h1)), dtype=np.uint64)
        for i in range(self.k):
            # splitmix64 finalizer per probe: decorrelates the k positions
            # the probe's offset wraps as a Python int: a numpy scalar
            # product would warn on the overflow
            z = h1 + np.uint64(i * 0x9E3779B97F4A7C15 % (1 << 64))
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z = z ^ (z >> np.uint64(31))
            pos[i] = z % np.uint64(self.n_bits)
        return pos

    def update(self, values) -> "BloomFilter":
        pos = self._positions(values).ravel()
        np.bitwise_or.at(self.bits, (pos >> np.uint64(3)).astype(np.int64),
                         (np.uint8(1) << (pos & np.uint64(7)).astype(np.uint8)))
        return self

    def contains(self, values) -> np.ndarray:
        """False = definitely absent; True = maybe present."""
        pos = self._positions(values)
        ok = np.ones(pos.shape[1], dtype=bool)
        for i in range(self.k):
            byte = self.bits[(pos[i] >> np.uint64(3)).astype(np.int64)]
            bit = (np.uint8(1) << (pos[i] & np.uint64(7)).astype(np.uint8))
            ok &= (byte & bit) != 0
        return ok

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        np.bitwise_or(self.bits, other.bits, out=self.bits)
        return self

    def to_bytes(self) -> bytes:
        return _pack(b"BLM1", [self.n_bits, self.k], self.bits)

    @classmethod
    def from_bytes(cls, b: bytes) -> "BloomFilter":
        r = _Layout(b, b"BLM1")
        s = cls.__new__(cls)
        s.n_bits, s.k = r.header(2, lambda n_bits, k: n_bits >= 1 and k >= 1)
        s.bits = r.take("u1", s.n_bits // 8 + 1)
        r.done()
        return s


# ---------------------------------------------------------------------------
# Drift statistics
# ---------------------------------------------------------------------------

def ks_statistic(a: "KLL", b: "KLL") -> float:
    """Two-sample KS statistic between two KLL sketches: the exact sup of
    the difference of their estimated CDFs.  Both are step functions that
    move only at retained items, so the sup is a max over the union of
    the two sketches' items."""
    if a.n == 0 or b.n == 0:
        return 0.0
    xs = np.concatenate([a._weighted()[0], b._weighted()[0]])
    return float(np.abs(a.cdf(xs) - b.cdf(xs)).max())


def psi(expected_counts: np.ndarray, actual_counts: np.ndarray,
        eps: float = 1e-6) -> float:
    """Population Stability Index over aligned bins."""
    e = np.asarray(expected_counts, dtype=np.float64)
    a = np.asarray(actual_counts, dtype=np.float64)
    ep = np.clip(e / max(e.sum(), 1), eps, None)
    ap = np.clip(a / max(a.sum(), 1), eps, None)
    return float(np.sum((ap - ep) * np.log(ap / ep)))


def freq_table_psi(expected: dict, actual: dict) -> float:
    """PSI over categorical frequency tables (codec / sr drift)."""
    keys = sorted(set(expected) | set(actual))
    e = np.array([expected.get(k, 0) for k in keys], dtype=np.float64)
    a = np.array([actual.get(k, 0) for k in keys], dtype=np.float64)
    return psi(e, a)


class KLL:
    """KLL quantile sketch (Karnin-Lang-Liberty, FOCS 2016): a mergeable
    multi-level compactor with O(k) space and rank error ~O(1/k),
    independent of stream length.

    Levels hold value buffers; a full level sorts and keeps every other
    item (weight doubles), pushing survivors up.  Compaction offsets
    alternate deterministically (the standard practical derandomization;
    same trick as Apache DataSketches' deterministic mode), so identical
    inputs always yield identical sketches — required for the engine's
    partitioning-invariance tests.  Level capacities shrink geometrically
    (c = 2/3) below the top ``k``."""

    _C = 2.0 / 3.0

    def __init__(self, k: int = 200):
        self.k = int(k)
        self.levels: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
        self.n = 0
        self._flips: list[bool] = [False]

    def _capacity(self, height_from_top: int) -> int:
        return max(2, int(np.ceil(self.k * (self._C ** height_from_top))))

    def update(self, values) -> "KLL":
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if len(v) == 0:
            return self
        self.n += len(v)
        self.levels[0] = np.concatenate([self.levels[0], v])
        self._compress()
        return self

    def _compress(self) -> None:
        h = 0
        while h < len(self.levels):
            top = len(self.levels) - 1
            cap = self._capacity(top - h)
            buf = self.levels[h]
            if len(buf) > cap:
                buf = np.sort(buf)
                off = 1 if self._flips[h] else 0
                self._flips[h] = not self._flips[h]
                survivors = buf[off::2]
                self.levels[h] = np.empty(0, dtype=np.float64)
                if h + 1 == len(self.levels):
                    self.levels.append(np.empty(0, dtype=np.float64))
                    self._flips.append(False)
                self.levels[h + 1] = np.concatenate(
                    [self.levels[h + 1], survivors])
            h += 1

    def merge(self, other: "KLL") -> "KLL":
        self.n += other.n
        for h, buf in enumerate(other.levels):
            while h >= len(self.levels):
                self.levels.append(np.empty(0, dtype=np.float64))
                self._flips.append(False)
            self.levels[h] = np.concatenate([self.levels[h], buf])
        self._compress()
        return self

    def _weighted(self) -> "tuple[np.ndarray, np.ndarray]":
        vals, wts = [], []
        for h, buf in enumerate(self.levels):
            if len(buf):
                vals.append(buf)
                wts.append(np.full(len(buf), 1 << h, dtype=np.int64))
        if not vals:
            return (np.empty(0, dtype=np.float64),
                    np.empty(0, dtype=np.int64))
        v = np.concatenate(vals)
        w = np.concatenate(wts)
        order = np.argsort(v, kind="stable")
        return v[order], w[order]

    def quantile(self, qs) -> np.ndarray:
        v, w = self._weighted()
        qs = np.atleast_1d(np.asarray(qs, dtype=np.float64))
        if len(v) == 0:
            return np.full(len(qs), np.nan)
        cum = np.cumsum(w)
        return v[np.minimum(np.searchsorted(cum, qs * cum[-1], side="left"),
                            len(v) - 1)]

    def cdf(self, xs: np.ndarray) -> np.ndarray:
        """Estimated fraction of items <= each of ``xs``."""
        v, w = self._weighted()
        if len(v) == 0:
            return np.zeros(len(xs))
        cum = np.concatenate([[0], np.cumsum(w)])
        return cum[np.searchsorted(v, xs, side="right")] / cum[-1]

    def rank(self, x: float) -> float:
        """Estimated fraction of items <= x."""
        return float(self.cdf(np.array([x], dtype=np.float64))[0])

    def to_bytes(self) -> bytes:
        return _pack(b"KLL1", [self.k, self.n, len(self.levels)],
                     np.array([len(b) for b in self.levels], dtype="<i8"),
                     np.array(self._flips, dtype="u1"),
                     np.concatenate(self.levels).astype("<f8"))

    @classmethod
    def from_bytes(cls, b: bytes) -> "KLL":
        r = _Layout(b, b"KLL1")
        k, n, n_levels = r.header(3, lambda k, n, h: k >= 2 and n >= 0 and 1 <= h <= 64)
        sizes, flips = r.take("<i8", n_levels), r.take("u1", n_levels)
        if (sizes < 0).any() or (flips > 1).any():
            raise ValueError("KLL level sizes or flips are out of range")
        values = r.take("<f8", sizes.sum())
        r.done()
        s = cls(k)
        s.n, s._flips = n, [bool(f) for f in flips]
        s.levels = np.split(values, np.cumsum(sizes)[:-1])
        return s
