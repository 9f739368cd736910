"""The solver's torque-free rollout of the all-zero dipole sequence, in two passes.

A zero dipole applies no torque, so the body rates follow the torque-free
Euler equations, which never read the attitude. `_rk4_free_rates` is the
rates pass: `dynamics._rk4_rollout`'s three Euler rows with the torque terms
and the tape dropped. `_rk4_free_attitude` is the attitude pass: the
kernel's four quaternion rows and the renormalization, run over the stage
rates the rates pass recorded. Each row is written once, and the two passes
together make every float operation `_rk4_rollout` makes under zero
dipoles, in its order, so their states are `integrate`'s up to the sign of
an exact zero. Their one caller is `controller._Problem.evaluate_zero`,
which checks the step arguments by `integrate`'s rule, runs the attitude
pass only where the cost weighs the attitude, and falls back to a taped
rollout where the passes cannot vouch for their states; the plant and the
prediction never use them.

Without a stage record the rates pass is guarded: it gives up, returning
None, at the first state, the start or a step's end, whose rates' 1-norm S
has h * S > 1/4 or is NaN. Under that bound every step of a unit quaternion
stays finite and nonzero. `InertiaTensor`'s triangle rule keeps every
gyroscopic factor |I_j - I_k| / I_i at most 1, so with h * S <= 1/4 at a
step's start each stage rate has h * |w|_1 <= 0.28, and one RK4 step moves
|q| by under 16% before it is renormalized. A stage rate that overflows
leaves the step's end rates non-finite, so the next check catches it.

It is a file of its own, not part of dynamics.py, because CPython compiles
a source file whole, and a run from source with no bytecode cache pays for
that compile in its peak memory. dynamics.py sits just under the 4096
parser tokens at which that compile's memory steps up by about 0.23 MB;
with this code inside it, the peak RSS of a detumble `magsat run` rose by
0.2-0.34 MB (2 vCPU x86-64, CPython 3.11.7).
"""

import math
from itertools import islice


def _rk4_free_rates(w: tuple, p: int, inertia: tuple, h: float, substeps: int,
                    stages: list | None) -> list | None:
    """The rates pass: `_rk4_rollout`'s Euler rows over p zero-dipole intervals from the rates w.

    Returns the p+1 interval-end rates, w first. Given a list `stages`,
    each RK4 step appends its four stage rates (w, wa, wb, wc), 12 floats,
    to it, for `_rk4_free_attitude`. Without one it records nothing and
    returns None at the first state whose rates fail the module's bound.
    """
    ix, iy, iz = inertia
    gx, gy, gz = iy - iz, iz - ix, ix - iy
    h2 = 0.5 * h
    h6 = h / 6.0
    x4, x5, x6 = w
    if stages is None and not h * (abs(x4) + abs(x5) + abs(x6)) <= 0.25:
        return None
    rates = [w]
    for _ in range(p):
        for _ in range(substeps):
            r4 = gx * x5 * x6 / ix
            r5 = gy * x6 * x4 / iy
            r6 = gz * x4 * x5 / iz
            xa4 = x4 + h2 * r4
            xa5 = x5 + h2 * r5
            xa6 = x6 + h2 * r6
            s4 = gx * xa5 * xa6 / ix
            s5 = gy * xa6 * xa4 / iy
            s6 = gz * xa4 * xa5 / iz
            xb4 = x4 + h2 * s4
            xb5 = x5 + h2 * s5
            xb6 = x6 + h2 * s6
            t4 = gx * xb5 * xb6 / ix
            t5 = gy * xb6 * xb4 / iy
            t6 = gz * xb4 * xb5 / iz
            xc4 = x4 + h * t4
            xc5 = x5 + h * t5
            xc6 = x6 + h * t6
            u4 = gx * xc5 * xc6 / ix
            u5 = gy * xc6 * xc4 / iy
            u6 = gz * xc4 * xc5 / iz
            n4 = x4 + h6 * (r4 + u4 + 2.0 * (s4 + t4))
            n5 = x5 + h6 * (r5 + u5 + 2.0 * (s5 + t5))
            n6 = x6 + h6 * (r6 + u6 + 2.0 * (s6 + t6))
            if stages is not None:
                stages.append((x4, x5, x6, xa4, xa5, xa6, xb4, xb5, xb6, xc4, xc5, xc6))
            elif not h * (abs(n4) + abs(n5) + abs(n6)) <= 0.25:
                return None
            x4, x5, x6 = n4, n5, n6
        rates.append((x4, x5, x6))
    return rates


def _rk4_free_attitude(q: tuple, rates: list, stages: list, h: float, substeps: int) -> list:
    """The attitude pass: `_rk4_rollout`'s quaternion rows from q over the recorded stage rates.

    `rates` and `stages` come from one `_rk4_free_rates` call with a stage
    record. Each slope keeps the kinematic rows in `_rk4_rollout`'s order,
    and each new quaternion is renormalized as there. Returns the p+1
    interval-end states (q, w), x first.
    """
    sqrt = math.sqrt
    h2 = 0.5 * h
    h4 = 0.5 * h2
    h12 = 0.5 * (h / 6.0)
    x0, x1, x2, x3 = q
    states = [q + rates[0]]
    steps = iter(stages)
    for w in rates[1:]:
        for x4, x5, x6, xa4, xa5, xa6, xb4, xb5, xb6, xc4, xc5, xc6 in islice(steps, substeps):
            r0 = x3 * x4 - x2 * x5 + x1 * x6
            r1 = x2 * x4 + x3 * x5 - x0 * x6
            r2 = x0 * x5 - x1 * x4 + x3 * x6
            r3 = -x0 * x4 - x1 * x5 - x2 * x6
            xa0 = x0 + h4 * r0
            xa1 = x1 + h4 * r1
            xa2 = x2 + h4 * r2
            xa3 = x3 + h4 * r3
            s0 = xa3 * xa4 - xa2 * xa5 + xa1 * xa6
            s1 = xa2 * xa4 + xa3 * xa5 - xa0 * xa6
            s2 = xa0 * xa5 - xa1 * xa4 + xa3 * xa6
            s3 = -xa0 * xa4 - xa1 * xa5 - xa2 * xa6
            xb0 = x0 + h4 * s0
            xb1 = x1 + h4 * s1
            xb2 = x2 + h4 * s2
            xb3 = x3 + h4 * s3
            t0 = xb3 * xb4 - xb2 * xb5 + xb1 * xb6
            t1 = xb2 * xb4 + xb3 * xb5 - xb0 * xb6
            t2 = xb0 * xb5 - xb1 * xb4 + xb3 * xb6
            t3 = -xb0 * xb4 - xb1 * xb5 - xb2 * xb6
            xc0 = x0 + h2 * t0
            xc1 = x1 + h2 * t1
            xc2 = x2 + h2 * t2
            xc3 = x3 + h2 * t3
            u0 = xc3 * xc4 - xc2 * xc5 + xc1 * xc6
            u1 = xc2 * xc4 + xc3 * xc5 - xc0 * xc6
            u2 = xc0 * xc5 - xc1 * xc4 + xc3 * xc6
            u3 = -xc0 * xc4 - xc1 * xc5 - xc2 * xc6
            n0 = x0 + h12 * (r0 + u0 + 2.0 * (s0 + t0))
            n1 = x1 + h12 * (r1 + u1 + 2.0 * (s1 + t1))
            n2 = x2 + h12 * (r2 + u2 + 2.0 * (s2 + t2))
            n3 = x3 + h12 * (r3 + u3 + 2.0 * (s3 + t3))
            norm = sqrt(n0 * n0 + n1 * n1 + n2 * n2 + n3 * n3) or math.nan
            x0 = n0 / norm
            x1 = n1 / norm
            x2 = n2 / norm
            x3 = n3 / norm
        states.append((x0, x1, x2, x3) + w)
    return states
