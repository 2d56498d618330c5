"""The native backend's kernels: one C unit, compiled once, bound by ctypes.

This module carries a single C translation unit, compiles it once with the
system compiler (``$CC``, ``cc``, ``gcc`` or ``clang``) into a shared
library, and binds the symbols through :mod:`ctypes`.  Every C function
``repro_<name>`` has a python twin ``_native_impl.<name>`` that takes the
same arguments and runs the same loop; its comment names the twin, and
the equivalence suite holds the two to identical arrays.

The compiled library is keyed by a SHA-256 of the C source and stored
inside the package, in ``repro/kernels/_build/`` (ignored by git), so the
compile cost is paid once per source revision per checkout or install, not
once per process, and nothing is written outside it.  An install whose
package directory is not writable builds into ``~/.cache/repro-native``,
then into a temporary directory.  ``$REPRO_NATIVE_CACHE`` overrides the
location.  A failed build raises :class:`NativeCompileError`, whose
``reason`` is ``import`` (no compiler) or ``compile``; the backend catches
it and degrades to the numpy implementations.

Everything here is arrays-in/arrays-out — no Graph objects, no imports
from the rest of ``repro`` (the layering contract pins this module inside
``repro.kernels``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "CACHE_ENV_VAR",
    "NativeCompileError",
    "CcProvider",
    "compiler_path",
    "library_path",
]

#: Overrides the on-disk location of compiled kernel libraries.
CACHE_ENV_VAR = "REPRO_NATIVE_CACHE"


class NativeCompileError(RuntimeError):
    """The C toolchain is missing or the kernel library failed to build.

    ``reason`` is the ``kernel.native_fallback`` label it maps to:
    ``import`` when no compiler was found, ``compile`` otherwise.
    """

    def __init__(self, message: str, reason: str = "compile") -> None:
        super().__init__(message)
        self.reason = reason


_SOURCE = r"""
#include <stdint.h>

/* Exact Batagelj-Zaversnik bucket peel; must equal
 * _native_impl.peel_exact, removal order included.  deg is destroyed;
 * coreness and vert (the peel order) are outputs; pos / bin_start /
 * cursor are scratch (n, max_deg + 2, max_deg + 2). */
void repro_peel_exact(int64_t n, const int64_t *indptr, const int64_t *indices,
                      int64_t *deg, int64_t max_deg,
                      int64_t *coreness, int64_t *vert,
                      int64_t *pos, int64_t *bin_start, int64_t *cursor) {
    for (int64_t d = 0; d <= max_deg + 1; d++) bin_start[d] = 0;
    for (int64_t v = 0; v < n; v++) bin_start[deg[v] + 1] += 1;
    for (int64_t d = 1; d <= max_deg + 1; d++) bin_start[d] += bin_start[d - 1];
    for (int64_t d = 0; d <= max_deg + 1; d++) cursor[d] = bin_start[d];
    for (int64_t v = 0; v < n; v++) {
        int64_t d = deg[v];
        int64_t p = cursor[d];
        vert[p] = v;
        pos[v] = p;
        cursor[d] = p + 1;
    }
    for (int64_t i = 0; i < n; i++) {
        int64_t v = vert[i];
        int64_t dv = deg[v];
        coreness[v] = dv;
        for (int64_t j = indptr[v]; j < indptr[v + 1]; j++) {
            int64_t u = indices[j];
            int64_t du = deg[u];
            if (du > dv) {
                int64_t first = bin_start[du];
                int64_t w = vert[first];
                if (u != w) {
                    int64_t pu = pos[u];
                    vert[first] = u;
                    vert[pu] = w;
                    pos[u] = first;
                    pos[w] = pu;
                }
                bin_start[du] = first + 1;
                deg[u] = du - 1;
            }
        }
    }
}

/* One Jacobi round of the h-index fixpoint over the vertices slice; must
 * equal _native_impl.hindex_fixpoint.  counts is zeroed scratch of size
 * max_deg + 1 (and is left zeroed). */
void repro_hindex_fixpoint(int64_t nv, const int64_t *vertices,
                           const int64_t *indptr, const int64_t *indices,
                           const int64_t *estimate, int64_t *out,
                           int64_t *counts) {
    for (int64_t i = 0; i < nv; i++) {
        int64_t v = vertices[i];
        int64_t a = indptr[v];
        int64_t b = indptr[v + 1];
        int64_t d = b - a;
        for (int64_t j = a; j < b; j++) {
            int64_t val = estimate[indices[j]];
            if (val < 0) val = 0;
            if (val > d) val = d;
            counts[val] += 1;
        }
        int64_t h = 0, acc = 0;
        for (int64_t x = d; x > 0; x--) {
            acc += counts[x];
            if (acc >= x) { h = x; break; }
        }
        for (int64_t j = a; j < b; j++) {
            int64_t val = estimate[indices[j]];
            if (val < 0) val = 0;
            if (val > d) val = d;
            counts[val] = 0;
        }
        int64_t ev = estimate[v];
        out[i] = h < ev ? h : ev;
    }
}

/* Algorithm 3 triangle charges: merge-intersect higher-rank suffixes;
 * must equal _native_impl.triangle_charges.  Only the part of H(v) after
 * u can meet H(u), so the merge starts there.  charges is an output. */
void repro_triangle_charges(int64_t n, const int64_t *indptr,
                            const int64_t *indices, const int64_t *nbr_rank,
                            const int64_t *high, int64_t *charges) {
    for (int64_t v = 0; v < n; v++) {
        int64_t a = indptr[v] + high[v];
        int64_t b = indptr[v + 1];
        int64_t total = 0;
        for (int64_t j = a; j < b; j++) {
            int64_t u = indices[j];
            int64_t c = indptr[u] + high[u];
            int64_t d = indptr[u + 1];
            int64_t p = j + 1, q = c;
            while (p < b && q < d) {
                int64_t x = nbr_rank[p], y = nbr_rank[q];
                if (x < y) p++;
                else if (y < x) q++;
                else { total++; p++; q++; }
            }
        }
        charges[v] = total;
    }
}

/* Per-vertex triplet charges (Algorithm 3): C(|N(x,>=)|, 2) at x, plus
 * one charge per (lower-level arc x->y, later arc in x's row) pair at y;
 * must equal _native_impl.triplet_charges.  charges must arrive zeroed. */
void repro_triplet_charges(int64_t n, const int64_t *indptr,
                           const int64_t *indices, const int64_t *same,
                           int64_t *charges) {
    for (int64_t x = 0; x < n; x++) {
        int64_t a = indptr[x];
        int64_t b = indptr[x + 1];
        int64_t ge = (b - a) - same[x];
        charges[x] += ge * (ge - 1) / 2;
        for (int64_t j = a; j < a + same[x]; j++)
            charges[indices[j]] += b - j - 1;
    }
}

/* Batched incremental core maintenance: deletes by chaotic h-index
 * descent, inserts by per-edge optimistic subcore peels, over the old CSR
 * (arc-active mask) plus an extra CSR of the delta's inserted arcs; must
 * equal _native_impl.subcore_repair, in-place updates included.
 * Mutates core / active / xactive in place and returns the number of ops
 * applied; a short count means an insert traversal exceeded `limit`.
 * stamp / removed must arrive filled with -1, inq with 0, counts (size
 * max_deg + 2) with 0; support / members / stack are length-n scratch. */
int64_t repro_subcore_repair(int64_t n, const int64_t *indptr,
                             const int64_t *indices, uint8_t *active,
                             const int64_t *xptr, const int64_t *xindices,
                             uint8_t *xactive, int64_t *core,
                             int64_t nops, const int64_t *ops_u,
                             const int64_t *ops_v, const int64_t *ops_kind,
                             int64_t limit, int64_t *stamp, int64_t *removed,
                             int64_t *support, int64_t *members,
                             int64_t *stack, uint8_t *inq, int64_t *counts) {
    (void)n;
    int64_t top = 0;
    for (int64_t i = 0; i < nops; i++) {
        if (ops_kind[i] != 0) continue;
        int64_t u = ops_u[i], v = ops_v[i];
        int64_t lo = indptr[u], hi = indptr[u + 1];
        while (lo < hi) {
            int64_t mid = (lo + hi) / 2;
            if (indices[mid] < v) lo = mid + 1; else hi = mid;
        }
        if (lo < indptr[u + 1] && indices[lo] == v) active[lo] = 0;
        lo = indptr[v]; hi = indptr[v + 1];
        while (lo < hi) {
            int64_t mid = (lo + hi) / 2;
            if (indices[mid] < u) lo = mid + 1; else hi = mid;
        }
        if (lo < indptr[v + 1] && indices[lo] == u) active[lo] = 0;
        if (inq[u] == 0) { inq[u] = 1; stack[top++] = u; }
        if (inq[v] == 0) { inq[v] = 1; stack[top++] = v; }
    }
    while (top > 0) {
        int64_t w = stack[--top];
        inq[w] = 0;
        int64_t cw = core[w];
        if (cw <= 0) continue;
        for (int64_t j = indptr[w]; j < indptr[w + 1]; j++) {
            if (active[j]) {
                int64_t val = core[indices[j]];
                if (val > cw) val = cw;
                if (val > 0) counts[val] += 1;
            }
        }
        for (int64_t j = xptr[w]; j < xptr[w + 1]; j++) {
            if (xactive[j]) {
                int64_t val = core[xindices[j]];
                if (val > cw) val = cw;
                if (val > 0) counts[val] += 1;
            }
        }
        int64_t h = 0, acc = 0;
        for (int64_t x = cw; x > 0; x--) {
            acc += counts[x];
            if (acc >= x) { h = x; break; }
        }
        for (int64_t j = indptr[w]; j < indptr[w + 1]; j++) {
            if (active[j]) {
                int64_t val = core[indices[j]];
                if (val > cw) val = cw;
                if (val > 0) counts[val] = 0;
            }
        }
        for (int64_t j = xptr[w]; j < xptr[w + 1]; j++) {
            if (xactive[j]) {
                int64_t val = core[xindices[j]];
                if (val > cw) val = cw;
                if (val > 0) counts[val] = 0;
            }
        }
        if (h < cw) {
            core[w] = h;
            for (int64_t j = indptr[w]; j < indptr[w + 1]; j++) {
                if (active[j]) {
                    int64_t x2 = indices[j];
                    if (core[x2] > h && core[x2] <= cw && inq[x2] == 0) { inq[x2] = 1; stack[top++] = x2; }
                }
            }
            for (int64_t j = xptr[w]; j < xptr[w + 1]; j++) {
                if (xactive[j]) {
                    int64_t x2 = xindices[j];
                    if (core[x2] > h && core[x2] <= cw && inq[x2] == 0) { inq[x2] = 1; stack[top++] = x2; }
                }
            }
        }
    }
    for (int64_t i = 0; i < nops; i++) {
        if (ops_kind[i] != 1) continue;
        int64_t u = ops_u[i], v = ops_v[i];
        int64_t lo = xptr[u], hi = xptr[u + 1];
        while (lo < hi) {
            int64_t mid = (lo + hi) / 2;
            if (xindices[mid] < v) lo = mid + 1; else hi = mid;
        }
        if (lo < xptr[u + 1] && xindices[lo] == v) xactive[lo] = 1;
        lo = xptr[v]; hi = xptr[v + 1];
        while (lo < hi) {
            int64_t mid = (lo + hi) / 2;
            if (xindices[mid] < u) lo = mid + 1; else hi = mid;
        }
        if (lo < xptr[v + 1] && xindices[lo] == u) xactive[lo] = 1;
        int64_t cu = core[u], cv = core[v];
        int64_t level = cu < cv ? cu : cv;
        int64_t root = cu <= cv ? u : v;
        int64_t count = 0;
        if (core[root] == level) {
            stamp[root] = i;
            members[0] = root;
            count = 1;
            int64_t head = 0;
            while (head < count) {
                int64_t w = members[head++];
                for (int64_t j = indptr[w]; j < indptr[w + 1]; j++) {
                    if (active[j]) {
                        int64_t x2 = indices[j];
                        if (core[x2] == level && stamp[x2] != i) {
                            stamp[x2] = i;
                            members[count++] = x2;
                            if (count > limit) return i;
                        }
                    }
                }
                for (int64_t j = xptr[w]; j < xptr[w + 1]; j++) {
                    if (xactive[j]) {
                        int64_t x2 = xindices[j];
                        if (core[x2] == level && stamp[x2] != i) {
                            stamp[x2] = i;
                            members[count++] = x2;
                            if (count > limit) return i;
                        }
                    }
                }
            }
        }
        for (int64_t t = 0; t < count; t++) {
            int64_t w = members[t];
            int64_t s = 0;
            for (int64_t j = indptr[w]; j < indptr[w + 1]; j++) {
                if (active[j]) {
                    int64_t x2 = indices[j];
                    if (core[x2] > level || stamp[x2] == i) s += 1;
                }
            }
            for (int64_t j = xptr[w]; j < xptr[w + 1]; j++) {
                if (xactive[j]) {
                    int64_t x2 = xindices[j];
                    if (core[x2] > level || stamp[x2] == i) s += 1;
                }
            }
            support[w] = s;
        }
        int64_t top2 = 0;
        for (int64_t t = 0; t < count; t++) {
            if (support[members[t]] <= level) stack[top2++] = members[t];
        }
        while (top2 > 0) {
            int64_t w = stack[--top2];
            if (removed[w] == i) continue;
            removed[w] = i;
            for (int64_t j = indptr[w]; j < indptr[w + 1]; j++) {
                if (active[j]) {
                    int64_t x2 = indices[j];
                    if (stamp[x2] == i && removed[x2] != i) {
                        support[x2] -= 1;
                        if (support[x2] == level) stack[top2++] = x2;
                    }
                }
            }
            for (int64_t j = xptr[w]; j < xptr[w + 1]; j++) {
                if (xactive[j]) {
                    int64_t x2 = xindices[j];
                    if (stamp[x2] == i && removed[x2] != i) {
                        support[x2] -= 1;
                        if (support[x2] == level) stack[top2++] = x2;
                    }
                }
            }
        }
        for (int64_t t = 0; t < count; t++) {
            int64_t w = members[t];
            if (removed[w] != i) core[w] = level + 1;
        }
    }
    return nops;
}
"""

_I64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_U8 = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
_N = ctypes.c_int64

#: symbol -> argtypes.  ndpointer arguments take numpy arrays as they are
#: and reject a wrong dtype or a strided view with ``ctypes.ArgumentError``.
_SIGNATURES = {
    "repro_peel_exact": (_N, _I64, _I64, _I64, _N, _I64, _I64, _I64, _I64, _I64),
    "repro_hindex_fixpoint": (_N, _I64, _I64, _I64, _I64, _I64, _I64),
    "repro_triangle_charges": (_N, _I64, _I64, _I64, _I64, _I64),
    "repro_triplet_charges": (_N, _I64, _I64, _I64, _I64),
    "repro_subcore_repair": (_N, _I64, _I64, _U8, _I64, _I64, _U8, _I64, _N, _I64,
                             _I64, _I64, _N, _I64, _I64, _I64, _I64, _I64, _U8, _I64),
}

#: Symbols that return a value (everything else returns void).
_RESTYPES = {"repro_subcore_repair": ctypes.c_int64}


def compiler_path() -> str | None:
    """Path of the C compiler to use, or ``None`` when the box has none."""
    cc = os.environ.get("CC", "").strip()
    candidates = ([cc] if cc else []) + ["cc", "gcc", "clang"]
    for name in candidates:
        found = shutil.which(name)
        if found:
            return found
    return None


def source_digest() -> str:
    return hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]


def _build_dirs() -> list[Path]:
    """Where the library may live, most preferred first: the override, or
    the package's ``_build`` directory and then the user cache."""
    override = os.environ.get(CACHE_ENV_VAR, "").strip()
    if override:
        return [Path(override)]
    return [Path(__file__).resolve().parent / "_build",
            Path(os.path.expanduser("~")) / ".cache" / "repro-native"]


def _writable(root: Path) -> bool:
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError:
        return False
    return os.access(root, os.W_OK)


#: ``"cold"`` once this process has compiled the library, else ``"warm"``.
_cache_state = "warm"


def library_path() -> Path:
    """The compiled library for this source revision, built when absent.

    Costs one ``stat`` once built, and one compile (well under a second)
    otherwise.  Raises :class:`NativeCompileError` when no compiler is
    found or the build fails.
    """
    global _cache_state
    name = f"kernels-{source_digest()}.so"
    # A directory is consulted only when every one before it is unwritable.
    for root in _build_dirs():
        if (root / name).is_file():
            return root / name
        if _writable(root):
            break
    else:
        root = None
    cc = compiler_path()
    if cc is None:
        raise NativeCompileError(
            "no C compiler found (checked $CC, cc, gcc, clang)", reason="import")
    if root is None:
        root = Path(tempfile.mkdtemp(prefix="repro-native-"))
    lib_path = root / name
    tmp_lib = root / f".{name}.{os.getpid()}.tmp"
    cmd = [cc, "-O3", "-shared", "-fPIC", "-x", "c", "-o", str(tmp_lib), "-"]
    try:
        proc = subprocess.run(cmd, input=_SOURCE, capture_output=True, text=True)
    except OSError as exc:
        raise NativeCompileError(f"C kernel compile failed ({' '.join(cmd)}): {exc}") from exc
    if proc.returncode != 0:
        tmp_lib.unlink(missing_ok=True)
        raise NativeCompileError(
            f"C kernel compile failed ({' '.join(cmd)}): {proc.stderr.strip()[:500]}"
        )
    os.replace(tmp_lib, lib_path)  # atomic: concurrent builders converge
    _cache_state = "cold"
    return lib_path


class CcProvider:
    """The compiled loop kernels, one attribute per C function.

    ``provider.<name>`` is the C function ``repro_<name>``, called with the
    arguments of its twin ``_native_impl.<name>``.  Construction builds
    the library (or loads it from the cache) and raises
    :class:`NativeCompileError` when no toolchain is available or the
    build fails; the native backend maps that to per-kernel numpy
    fallback with the ``compile`` reason.
    """

    def __init__(self) -> None:
        self._lib = ctypes.CDLL(str(library_path()))
        self.cache_state = _cache_state
        for symbol, argtypes in _SIGNATURES.items():
            fn = getattr(self._lib, symbol)
            fn.argtypes = argtypes
            fn.restype = _RESTYPES.get(symbol)
            setattr(self, symbol.removeprefix("repro_"), fn)
        cc = compiler_path()
        self.name = f"cc-{Path(cc).name}" if cc else "cc"
