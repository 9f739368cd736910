"""The compiled RK4 kernel: `_rk4.c`, built once per machine and loaded with ctypes.

`_rk4.c` holds two functions. `dynamics` calls `load` once, at import, with
its Python kernel `_rk4_rollout`; `integrate` then runs `rollout` and
`dynamics.sensitivity` runs `sensitivity`: the compiled functions where they
could be built and passed their check, else `_rk4_rollout` and
`reference_sensitivity`, the numpy reference kept here. Each pair takes the
same arguments and gives the same bytes: `_rk4.c` makes every float
operation of the Python function in its order. `library` is the path of the
loaded build, or None where both Python functions run, and `error` then
says why.

`reference_sensitivity` uses elementwise ufuncs only, with no `@`, BLAS or
LAPACK call, so its Jacobian does not depend on the BLAS kernel the CPU
selects: every matrix product is an ordered sum over the inner index, left
to right (`_product`), as the C function makes it.

The build is a shared library in the user cache directory ($XDG_CACHE_HOME,
else ~/.cache, under magsat/), named by a CRC-32 of the source, the compiler
flags and the platform, so a later import only loads it. It is compiled
with the system C compiler (sysconfig's CC, else cc) under a file lock,
written under a temporary name and renamed into place, so no process
compiles the same source twice. A compiler that fails leaves its message in
the cache under the same name, and later imports read that message rather
than compile again; removing the cache directory retries the build. The
flags keep IEEE double arithmetic as CPython does it: -ffp-contract=off
forbids fused multiply-adds, and there is no -march and no fast-math.

Before its first use in a process the build runs the fixed rollouts of
`_draws` and must give the Python kernel's states and tape records, where a
NaN may differ in its sign or payload, and the Jacobians of the finite
tapes of `_JACOBIAN_DRAWS` must be `reference_sensitivity`'s bytes; a build
that fails either is never used. Importing the package pays for that check,
about 2 ms.
"""

import ctypes
import math
import os
import platform
import struct
import sys
import zlib
from itertools import chain, count
from pathlib import Path

import numpy as np

from .errors import _read_only

_SOURCE = os.path.join(os.path.dirname(__file__), "_rk4.c")
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

rollout = None      # the kernel `integrate` runs
sensitivity = None  # the Jacobian `dynamics.sensitivity` runs
library = None      # the loaded build, None where the Python functions run
error = None        # why the Python functions run

# the draws whose tapes the check turns into Jacobians, taped and finite: a
# signed-zero start at Ts 30 s in 3 substeps, a non-unit quaternion at the
# attitude preset's scale at Ts 2 s in 2, and one at unit scale at Ts 30 s in
# 3. Each costs the numpy reference about 0.25 ms, so three of the six taped
# finite draws keep the Jacobian's part of the check near 1 ms
_JACOBIAN_DRAWS = (0, 4, 9)


def load(reference) -> None:
    """Set `rollout` and `sensitivity` to the compiled functions if they build and pass the check.

    `reference` is the Python kernel; the compiled kernel must match it on
    `_draws`, and the compiled Jacobian must match `reference_sensitivity`
    on the tapes of `_JACOBIAN_DRAWS`.
    """
    global rollout, sensitivity, library, error
    try:
        path = _build()
        built = ctypes.CDLL(path)
        compiled = _wrap(built.magsat_rk4_rollout)
        jacobian = _wrap_sensitivity(built.magsat_rk4_sensitivity)
        for i, (x, m, b, inertia, h, substeps, taped) in enumerate(_draws()):
            tape = [] if taped else None
            got = _result(compiled, x, m, b, inertia, h, substeps, [] if taped else None)
            want = _result(reference, x, m, b, inertia, h, substeps, tape)
            if got != want and _nan_free(got) != _nan_free(want):
                raise RuntimeError(f"{path} differs from the Python kernel on draw {i}")
            if i in _JACOBIAN_DRAWS:
                args = (tape, np.array(m), np.array(b), h * substeps, inertia)
                if jacobian(*args).tobytes() != reference_sensitivity(*args).tobytes():
                    raise RuntimeError(f"{path} differs from the Python Jacobian on draw {i}")
    # the compiled functions are optional: whatever stops them, the Python ones run
    except Exception as exc:
        rollout, sensitivity = reference, reference_sensitivity
        library, error = None, f"{type(exc).__name__}: {exc}"
    else:
        rollout, sensitivity, library, error = compiled, jacobian, path, None


def _build() -> str:
    """The path of the build of `_SOURCE`, compiled here if the cache holds none.

    Every import runs this, so it keeps to `os.path`, which costs less than `pathlib`.
    """
    with open(_SOURCE, "rb") as f:
        source = f.read()
    machine = f"{sys.platform} {platform.machine()}"
    key = zlib.crc32(b"\0".join((source, " ".join(_FLAGS).encode(), machine.encode())))
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    lib = os.path.join(cache, "magsat", f"rk4-{key:08x}.so")
    if not os.path.exists(lib):
        _compile(source, Path(lib))
    return lib


def _compile(source: bytes, lib: Path) -> None:
    """Compile `source` into `lib`, or raise the compiler's message, kept next to `lib`."""
    import fcntl
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    failed = lib.with_suffix(".err")
    lib.parent.mkdir(parents=True, exist_ok=True)
    with open(lib.with_suffix(".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # another process may be building the same source
        if lib.exists():
            return
        if failed.exists():
            raise RuntimeError(failed.read_text())
        with tempfile.TemporaryDirectory(dir=lib.parent) as tmp:
            c_file, built = Path(tmp, "_rk4.c"), Path(tmp, lib.name)
            c_file.write_bytes(source)
            command = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *_FLAGS,
                       "-o", str(built), str(c_file), "-lm"]
            try:
                subprocess.run(command, capture_output=True, text=True, check=True)
            except subprocess.CalledProcessError as exc:
                message = f"{shlex.join(command)} exited with {exc.returncode}:\n{exc.stderr}"
            except OSError as exc:  # no such compiler
                message = f"{shlex.join(command)}: {exc}"
            else:
                os.replace(built, lib)
                return
            Path(tmp, "err").write_text(message)
            os.replace(Path(tmp, "err"), failed)
            raise RuntimeError(message)


def _wrap(kernel):
    """`_rk4_rollout`'s signature over the C function: inputs packed, states and tape read back.

    The inputs go in as one buffer of doubles, the gyroscopic differences
    computed here as `_rk4_rollout` computes them; the states and the tape
    come back in one buffer, the tape as one 33-double `bytes` record per step.
    The two buffers are sized here from p and substeps, as the C code reads
    and writes them, and are held until the call returns.
    """
    pack, unpack = struct.pack, struct.iter_unpack
    buffer, byref = ctypes.create_string_buffer, ctypes.byref
    kernel.argtypes = (ctypes.c_char_p, ctypes.c_long, ctypes.c_long, ctypes.c_void_p,
                       ctypes.c_void_p)
    kernel.restype = None

    def compiled(x, m, b, inertia, h, substeps, tape):
        ix, iy, iz = inertia
        p = len(m)
        size = 56 * (p + 1)  # the p + 1 states of 7 doubles
        n = 0 if tape is None else p * substeps
        out = buffer(size + 264 * n)
        kernel(pack(f"{14 + 6 * p}d", *x, ix, iy, iz, iy - iz, iz - ix, ix - iy, h, *chain(*m),
                    *chain(*b)), p, substeps, out, byref(out, size) if n else None)
        raw = out.raw
        if n:
            tape += [raw[i:i + 264] for i in range(size, len(raw), 264)]
        return list(unpack("7d", raw[:size]))

    return compiled


def _wrap_sensitivity(kernel):
    """`reference_sensitivity`'s signature over the C function: inputs packed, Jacobian written.

    The inertia, Ts, the dipoles and the fields go in as one buffer of
    doubles and the tape as its joined records, each sized against p and
    the substep count before the C code reads them; the C code writes the
    Jacobian into a new buffer, sized here from p as it writes it, which the
    returned (7p, 3p) array reads.
    """
    pack, buffer, frombuffer = struct.pack, ctypes.create_string_buffer, np.frombuffer
    kernel.argtypes = (ctypes.c_char_p, ctypes.c_char_p, ctypes.c_long, ctypes.c_long,
                       ctypes.c_void_p)
    kernel.restype = None

    def compiled(tape, m, b, ts, inertia):
        p = len(m)
        substeps = len(tape) // p
        m, b = np.asarray(m, float), np.asarray(b, float)
        data = pack("4d", *inertia, ts) + m.tobytes() + b.tobytes()
        records = b"".join(tape)
        if len(data) != 32 + 48 * p or len(records) != 264 * p * substeps or not substeps:
            raise ValueError(f"{len(tape)} tape records, dipoles {m.shape} and fields {b.shape} "
                             "are not one rollout's")
        out = buffer(168 * p * p)  # the (7p, 3p) doubles
        kernel(data, records, p, substeps, out)
        return frombuffer(out).reshape(7 * p, 3 * p)

    return compiled


def _result(kernel, x, m, b, inertia, h, substeps, tape) -> bytes:
    """A kernel's states, then the tape records it appended to `tape` (a list or None), packed."""
    states = kernel(x, m, b, inertia, h, substeps, tape)
    return struct.pack(f"{7 * len(states)}d", *chain(*states)) + b"".join(tape or ())


def _nan_free(result: bytes) -> bytes:
    """A `_result` with every NaN made `math.nan`: two kernels' NaNs may differ in their bits."""
    values = memoryview(result).cast("d")
    return struct.pack(f"{len(values)}d", *[v if v == v else math.nan for v in values])


def _draws():
    """The check's rollouts, each (x, m, b, inertia, h, substeps, taped).

    Two starts with exact signed zeros (q1 = q2 and wx = -wy with q4 = -0.0
    cancel a kinematic row exactly; a -0.0 scalar part), then eight with a
    non-unit quaternion. They cycle through Ts 30, 2 and 0.1 s in 3, 2 and 1
    substeps, two taped, then two untaped, and each runs a zero-dipole
    interval, then a driven one, at the attitude preset's scale (inertia,
    rates and field) or at a unit-sized one, where the torque and the
    gyroscopic terms are alike in size. Last, a taped spin at 1e41 rad/s
    whose quaternion's sum of squares overflows, so that a later norm is
    exactly zero and the state turns NaN. The other values are sines of
    whole numbers: fixed, and as varied in their last bits as random draws.
    """
    u = (math.sin(k) for k in count(1))
    r = math.sqrt(0.5)
    starts = [(r, r, 0.0, -0.0, 0.01, -0.01, 0.0), (0.6, 0.8, 0.0, -0.0, -0.0, 0.0, 0.01)]
    for i in range(10):
        preset = i % 2 == 0
        ts, substeps = ((30.0, 3), (2.0, 2), (0.1, 1))[i % 3]
        x = starts[i] if i < 2 else (*(next(u) for _ in range(4)),
                                     *((0.01 if preset else 0.3) * next(u) for _ in range(3)))
        inertia = (0.02, 0.03, 0.04) if preset else tuple(1.5 + 0.5 * next(u) for _ in range(3))
        m = [[0.0, -0.0, 0.0], [0.1 * next(u) for _ in range(3)]]
        b = [[(5e-5 if preset else 0.5) * next(u) for _ in range(3)] for _ in range(2)]
        yield x, m, b, inertia, ts / substeps, substeps, i // 2 % 2 == 0
    q = 1.0 / math.hypot(0.1, 1.0)
    yield ((0.0, 0.1 * q, 0.0, q, 0.0, -1e41, 0.0), [[0.0, 0.0, 0.0]], [[3e-5, -1e-5, 2e-5]],
           (0.02, 0.03, 0.04), 10.0, 3, True)


# --- the Jacobian's reference: `magsat_rk4_sensitivity`'s float operations in numpy ---------

# the kinematic rows of a stage Jacobian, (1/2) d(M(q) w)/d(q, w): entry (i, j)
# is 0.5 times the state component its table entry names (1-based, signed),
# or a structural +0.0 where the entry is 0
_KINEMATIC = np.array([[0, 7, -6, 5, 4, -3, 2], [-7, 0, 5, 6, 3, 4, -1],
                       [6, -5, 0, 7, -2, 1, 4], [-5, -6, -7, 0, -1, -2, -3]])
_KIN_ROW, _KIN_COL = np.nonzero(_KINEMATIC)
_KIN_FROM = np.abs(_KINEMATIC[_KIN_ROW, _KIN_COL]) - 1
_KIN_SIGN = np.sign(_KINEMATIC[_KIN_ROW, _KIN_COL]).astype(float)
# dv_l/dq_j of v = R(q) b, linear in q: ((t_x + t_y) + t_z) with t_d the
# named quaternion component (1-based, signed) times the doubled field's d component
_DVDQ = np.array([[[1, 2, 3], [-2, 1, -4], [-3, 4, 1], [4, 3, -2]],
                  [[2, -1, 4], [1, 2, 3], [-4, -3, 2], [-3, 4, 1]],
                  [[3, -4, -1], [4, 3, -2], [1, 2, 3], [2, -1, 4]]])
_DVDQ_FROM = np.where(_DVDQ > 0, _DVDQ - 1, 3 - _DVDQ)  # into (q, -q)
_read_only(_KINEMATIC, _KIN_ROW, _KIN_COL, _KIN_FROM, _KIN_SIGN, _DVDQ, _DVDQ_FROM)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the last two axes, each entry an ordered sum over the inner index, left to right.

    The sum starts from its first product, as `_rk4.c`'s `product` does.
    """
    out = a[..., :, 0, None] * b[..., 0, None, :]
    for i in range(1, a.shape[-1]):
        out = out + a[..., :, i, None] * b[..., i, None, :]
    return out


def _stage_jacobians(ys: np.ndarray, m: np.ndarray, b: np.ndarray, inertia: tuple) -> np.ndarray:
    """[df/dy | df/dm] at the stages ys, shape (p, ..., 7) -> (p, ..., 7, 10), as `stage_jacobian`.

    ys[k] holds stages of interval k, which holds the dipole m[k] and the
    orbital-frame field b[k]. Every entry is written out: the kinematic rows
    from `_KINEMATIC`, dv/dq from `_DVDQ`, and the torque rows, the
    gyroscopic terms and the dipole columns cyclically, as `_rhs` reads.
    """
    ix, iy, iz = inertia
    g = ((iy - iz) / ix, (iz - ix) / iy, (ix - iy) / iz)
    r = (1.0 / ix, 1.0 / iy, 1.0 / iz)
    lead = (len(m),) + (1,) * (ys.ndim - 2)
    mm = [m[:, i].reshape(lead) for i in range(3)]
    bx, by, bz = (b[:, i].reshape(lead) for i in range(3))
    bx2, by2, bz2 = 2.0 * bx, 2.0 * by, 2.0 * bz
    q1, q2, q3, q4 = (ys[..., i] for i in range(4))
    w = [ys[..., 4 + i] for i in range(3)]
    xx, yy, zz, ww = q1 * q1, q2 * q2, q3 * q3, q4 * q4
    q12, q34, q13, q24, q23, q14 = q1 * q2, q3 * q4, q1 * q3, q2 * q4, q2 * q3, q1 * q4
    v = (
        (xx - yy - zz + ww) * bx + ((q12 + q34) * by2 + (q13 - q24) * bz2),
        (q12 - q34) * bx2 + (q23 + q14) * bz2 + (yy - xx - zz + ww) * by,
        (q13 + q24) * bx2 + (q23 - q14) * by2 + (zz - (xx + yy) + ww) * bz,
    )
    t = np.concatenate([ys[..., :4], -ys[..., :4]], axis=-1)[..., _DVDQ_FROM]
    dv = t[..., 0] * bx2[..., None, None] + t[..., 1] * by2[..., None, None]
    dv = dv + t[..., 2] * bz2[..., None, None]
    jac = np.zeros(ys.shape + (10,))
    jac[..., _KIN_ROW, _KIN_COL] = 0.5 * ys[..., _KIN_FROM] * _KIN_SIGN
    for i in range(3):
        a, c = (i + 1) % 3, (i + 2) % 3
        row = jac[..., 4 + i, :]
        row[..., :4] = (mm[a][..., None] * dv[..., c, :] - mm[c][..., None] * dv[..., a, :]) * r[i]
        row[..., 4 + a] = g[i] * w[c]
        row[..., 4 + c] = g[i] * w[a]
        row[..., 7 + a] = v[c] * r[i]
        row[..., 7 + c] = -(v[a] * r[i])
    return jac


def reference_sensitivity(tape, m: np.ndarray, b: np.ndarray, ts: float, inertia: tuple):
    """d(x_1..x_p)/d(m_0..m_{p-1}) of a taped rollout, shape (7p, 3p): `_rk4.c`'s Jacobian in numpy.

    m and b are the rollout's dipoles and orbital-frame fields, shape (p, 3),
    and inertia its (ix, iy, iz). The tape's records are read as one
    (p, substeps, 33) array. Every step's (7, 10) map of (start state,
    dipole) is the RK4 tableau on its four stage Jacobians, passed through
    the renormalization q <- q/|q| (Jacobian (I - n n')/|q|), all steps at
    once; the steps chain into each interval's map, and the intervals into
    the block lower-triangular Jacobian: each diagonal block is its
    interval's dipole map and each row block below the first is its
    interval's state map times the row block above.
    """
    p = len(m)
    substeps = len(tape) // p
    h = ts / substeps
    recs = np.frombuffer(b"".join(tape)).reshape(p, substeps, 33)
    jac = _stage_jacobians(recs[..., :28].reshape(p, substeps, 4, 7), m, b, inertia)
    k1 = jac[:, :, 0]
    k2 = jac[:, :, 1] + (0.5 * h) * _product(jac[:, :, 1, :, :7], k1)
    k3 = jac[:, :, 2] + (0.5 * h) * _product(jac[:, :, 2, :, :7], k2)
    k4 = jac[:, :, 3] + h * _product(jac[:, :, 3, :, :7], k3)
    phi = (h / 6.0) * ((k1 + k4) + 2.0 * (k2 + k3))
    diagonal = range(7)
    phi[..., diagonal, diagonal] += 1.0
    n, norm = recs[..., 28:32], recs[..., 32, None, None]
    rows = phi[..., :4, :]
    phi[..., :4, :] = (rows - n[..., :, None] * _product(n[..., None, :], rows)) / norm
    interval = phi[:, 0]
    for j in range(1, substeps):
        interval = _product(phi[:, j, :, :7], interval)
        interval[..., 7:] += phi[:, j, :, 7:]
    k = range(p)
    sens = np.zeros((p, 7, p, 3))
    sens[k, :, k] = interval[..., 7:]
    sens = sens.reshape(p, 7, 3 * p)
    for k in range(1, p):
        sens[k, :, : 3 * k] = _product(interval[k, :, :7], sens[k - 1, :, : 3 * k])
    return sens.reshape(7 * p, 3 * p)
