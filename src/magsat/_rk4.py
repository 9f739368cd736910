"""The compiled RK4 kernel: `_rk4.c`, built once per machine and loaded with ctypes.

`dynamics` calls `load` once, at import, with its Python kernel
`_rk4_rollout`, and `integrate` then runs `rollout`: the compiled kernel
where it could be built and passed its check, else the Python one. The two
take the same arguments and give the same states and tape records, bit for
bit: `_rk4.c` makes every float operation of `_rk4_rollout` in its order.
`library` is the path of the loaded build, or None where the Python kernel
runs, and `error` then says why.

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
NaN may differ in its sign or payload; a build that fails is never used.
Importing the package pays for that check, about 1 ms.
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

_SOURCE = os.path.join(os.path.dirname(__file__), "_rk4.c")
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

rollout = None  # the kernel `integrate` runs
library = None  # the loaded build, None where the Python kernel runs
error = None    # why the Python kernel runs


def load(reference) -> None:
    """Set `rollout` to the compiled kernel if it builds and matches `reference` on `_draws`."""
    global rollout, library, error
    try:
        path = _build()
        compiled = _wrap(ctypes.CDLL(path).magsat_rk4_rollout)
        for i, draw in enumerate(_draws()):
            got, want = _result(compiled, *draw), _result(reference, *draw)
            if got != want and _nan_free(got) != _nan_free(want):
                raise RuntimeError(f"{path} differs from the Python kernel on draw {i}")
    # the compiled kernel is optional: whatever stops it, the Python kernel runs
    except Exception as exc:
        rollout, library, error = reference, None, f"{type(exc).__name__}: {exc}"
    else:
        rollout, library, error = compiled, path, None


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


def _result(kernel, x, m, b, inertia, h, substeps, taped) -> bytes:
    """A kernel's states, then its tape records, as packed doubles."""
    tape = []
    states = kernel(x, m, b, inertia, h, substeps, tape if taped else None)
    return struct.pack(f"{7 * len(states)}d", *chain(*states)) + b"".join(tape)


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
