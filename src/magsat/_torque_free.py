"""The solver's torque-free rollout of the all-zero dipole sequence.

`_rk4_free_rollout` is `dynamics._rk4_rollout` with the torque terms and the
tape dropped. Its one caller is `controller._Problem.evaluate_zero`, which
checks its step arguments by `integrate`'s rule and falls back to a taped
rollout where this one cannot vouch for its states; the plant and the
prediction never use it.

It is a file of its own, not part of dynamics.py, because CPython compiles
a source file whole, and a run from source with no bytecode cache pays for
that compile in its peak memory. dynamics.py sits just under the 4096
parser tokens at which that compile's memory steps up by about 0.23 MB;
with this code inside it, the peak RSS of a detumble `magsat run` rose by
0.2-0.34 MB (2 vCPU x86-64, CPython 3.11.7).
"""

import math


def _rk4_free_rollout(x: tuple, p: int, inertia: tuple, h: float, substeps: int) -> list:
    """`_rk4_rollout` over p zero-dipole intervals, with the torque terms and the tape dropped.

    Each slope keeps the kinematic rows and the gyroscopic term, in
    `_rk4_rollout`'s order, and never rotates the field. Returns the p+1
    interval-end states, x first.
    """
    ix, iy, iz = inertia
    gx, gy, gz = iy - iz, iz - ix, ix - iy
    sqrt = math.sqrt
    h2 = 0.5 * h
    h4 = 0.5 * h2
    h6 = h / 6.0
    h12 = 0.5 * h6
    x0, x1, x2, x3, x4, x5, x6 = x
    states = [x]
    for _ in range(p):
        for _ in range(substeps):
            r0 = x3 * x4 - x2 * x5 + x1 * x6
            r1 = x2 * x4 + x3 * x5 - x0 * x6
            r2 = x0 * x5 - x1 * x4 + x3 * x6
            r3 = -x0 * x4 - x1 * x5 - x2 * x6
            r4 = gx * x5 * x6 / ix
            r5 = gy * x6 * x4 / iy
            r6 = gz * x4 * x5 / iz
            xa0 = x0 + h4 * r0
            xa1 = x1 + h4 * r1
            xa2 = x2 + h4 * r2
            xa3 = x3 + h4 * r3
            xa4 = x4 + h2 * r4
            xa5 = x5 + h2 * r5
            xa6 = x6 + h2 * r6
            s0 = xa3 * xa4 - xa2 * xa5 + xa1 * xa6
            s1 = xa2 * xa4 + xa3 * xa5 - xa0 * xa6
            s2 = xa0 * xa5 - xa1 * xa4 + xa3 * xa6
            s3 = -xa0 * xa4 - xa1 * xa5 - xa2 * xa6
            s4 = gx * xa5 * xa6 / ix
            s5 = gy * xa6 * xa4 / iy
            s6 = gz * xa4 * xa5 / iz
            xb0 = x0 + h4 * s0
            xb1 = x1 + h4 * s1
            xb2 = x2 + h4 * s2
            xb3 = x3 + h4 * s3
            xb4 = x4 + h2 * s4
            xb5 = x5 + h2 * s5
            xb6 = x6 + h2 * s6
            t0 = xb3 * xb4 - xb2 * xb5 + xb1 * xb6
            t1 = xb2 * xb4 + xb3 * xb5 - xb0 * xb6
            t2 = xb0 * xb5 - xb1 * xb4 + xb3 * xb6
            t3 = -xb0 * xb4 - xb1 * xb5 - xb2 * xb6
            t4 = gx * xb5 * xb6 / ix
            t5 = gy * xb6 * xb4 / iy
            t6 = gz * xb4 * xb5 / iz
            xc0 = x0 + h2 * t0
            xc1 = x1 + h2 * t1
            xc2 = x2 + h2 * t2
            xc3 = x3 + h2 * t3
            xc4 = x4 + h * t4
            xc5 = x5 + h * t5
            xc6 = x6 + h * t6
            u0 = xc3 * xc4 - xc2 * xc5 + xc1 * xc6
            u1 = xc2 * xc4 + xc3 * xc5 - xc0 * xc6
            u2 = xc0 * xc5 - xc1 * xc4 + xc3 * xc6
            u3 = -xc0 * xc4 - xc1 * xc5 - xc2 * xc6
            u4 = gx * xc5 * xc6 / ix
            u5 = gy * xc6 * xc4 / iy
            u6 = gz * xc4 * xc5 / iz
            n0 = x0 + h12 * (r0 + u0 + 2.0 * (s0 + t0))
            n1 = x1 + h12 * (r1 + u1 + 2.0 * (s1 + t1))
            n2 = x2 + h12 * (r2 + u2 + 2.0 * (s2 + t2))
            n3 = x3 + h12 * (r3 + u3 + 2.0 * (s3 + t3))
            norm = sqrt(n0 * n0 + n1 * n1 + n2 * n2 + n3 * n3) or math.nan
            x0 = n0 / norm
            x1 = n1 / norm
            x2 = n2 / norm
            x3 = n3 / norm
            x4 = x4 + h6 * (r4 + u4 + 2.0 * (s4 + t4))
            x5 = x5 + h6 * (r5 + u5 + 2.0 * (s5 + t5))
            x6 = x6 + h6 * (r6 + u6 + 2.0 * (s6 + t6))
        states.append((x0, x1, x2, x3, x4, x5, x6))
    return states
