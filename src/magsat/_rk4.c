/* `dynamics._rk4_rollout` in C: the same float operations in the same order.
 *
 * Every expression of the Python kernel is written here with each
 * left-to-right chain parenthesized as Python evaluates it, so that a
 * double-precision build without contraction (-ffp-contract=off, no
 * fast-math) rounds every value as CPython does. `_rk4.py` builds this
 * file, checks the build against the Python kernel and loads it with ctypes.
 *
 * `in` holds 14 + 6p doubles: the start state (7), the inertia (ix, iy, iz)
 * and its gyroscopic differences (iy - iz, iz - ix, ix - iy) as Python
 * computed them, the step length h, then the p held dipoles and the p
 * orbital-frame fields (3 each). states receives the p + 1 interval-end
 * states, the start first. A non-null tape receives one record of 33 doubles
 * per step: x, xa, xb, xc, the renormalized quaternion and the norm before
 * renormalization.
 */
#include <math.h>
#include <string.h>

/* One slope of the right-hand side at the stage y, `_rk4_rollout`'s folded
 * form: the kinematic rows r[0..3] hold twice the slope, and bx2, by2, bz2
 * are the field doubled. */
static inline void slope(const double *y, double *r, double mx, double my, double mz,
                         double bx, double by, double bz, double bx2, double by2, double bz2,
                         const double *g)
{
    const double xx = y[0] * y[0], yy = y[1] * y[1], zz = y[2] * y[2], ww = y[3] * y[3];
    const double q12 = y[0] * y[1], q34 = y[2] * y[3], q13 = y[0] * y[2];
    const double q24 = y[1] * y[3], q23 = y[1] * y[2], q14 = y[0] * y[3];
    const double v1 = (((xx - yy) - zz) + ww) * bx + (((q12 + q34) * by2) + ((q13 - q24) * bz2));
    const double v2 = (((q12 - q34) * bx2) + ((q23 + q14) * bz2)) + ((((yy - xx) - zz) + ww) * by);
    const double v3 = (((q13 + q24) * bx2) + ((q23 - q14) * by2)) + (((zz - (xx + yy)) + ww) * bz);
    r[0] = ((y[3] * y[4]) - (y[2] * y[5])) + (y[1] * y[6]);
    r[1] = ((y[2] * y[4]) + (y[3] * y[5])) - (y[0] * y[6]);
    r[2] = ((y[0] * y[5]) - (y[1] * y[4])) + (y[3] * y[6]);
    r[3] = (((-y[0]) * y[4]) - (y[1] * y[5])) - (y[2] * y[6]);
    r[4] = (((g[3] * y[5]) * y[6]) + ((my * v3) - (mz * v2))) / g[0];
    r[5] = (((g[4] * y[6]) * y[4]) + ((mz * v1) - (mx * v3))) / g[1];
    r[6] = (((g[5] * y[4]) * y[5]) + ((mx * v2) - (my * v1))) / g[2];
}

void magsat_rk4_rollout(const double *in, long p, long substeps, double *states, double *tape)
{
    const double *g = in + 7, *m = in + 14, *b = in + 14 + 3 * p;
    const double h = in[13], h2 = 0.5 * h, h4 = 0.5 * h2, h6 = h / 6.0, h12 = 0.5 * h6;
    double x[7], xa[7], xb[7], xc[7], r[7], s[7], t[7], u[7], n[7];
    memcpy(x, in, sizeof x);
    memcpy(states, x, sizeof x);
    for (long k = 0; k < p; k++) {
        const double mx = m[3 * k], my = m[3 * k + 1], mz = m[3 * k + 2];
        const double bx = b[3 * k], by = b[3 * k + 1], bz = b[3 * k + 2];
        const double bx2 = 2.0 * bx, by2 = 2.0 * by, bz2 = 2.0 * bz;
        for (long j = 0; j < substeps; j++) {
            slope(x, r, mx, my, mz, bx, by, bz, bx2, by2, bz2, g);
            for (int i = 0; i < 7; i++)
                xa[i] = x[i] + (i < 4 ? h4 : h2) * r[i];
            slope(xa, s, mx, my, mz, bx, by, bz, bx2, by2, bz2, g);
            for (int i = 0; i < 7; i++)
                xb[i] = x[i] + (i < 4 ? h4 : h2) * s[i];
            slope(xb, t, mx, my, mz, bx, by, bz, bx2, by2, bz2, g);
            for (int i = 0; i < 7; i++)
                xc[i] = x[i] + (i < 4 ? h2 : h) * t[i];
            slope(xc, u, mx, my, mz, bx, by, bz, bx2, by2, bz2, g);
            for (int i = 0; i < 7; i++)
                n[i] = x[i] + (i < 4 ? h12 : h6) * ((r[i] + u[i]) + 2.0 * (s[i] + t[i]));
            /* a zero norm gives a NaN quaternion, which `integrate` reports */
            double norm = sqrt((((n[0] * n[0]) + (n[1] * n[1])) + (n[2] * n[2])) + (n[3] * n[3]));
            if (norm == 0.0)
                norm = NAN;
            for (int i = 0; i < 4; i++)
                n[i] = n[i] / norm;
            if (tape) {
                memcpy(tape, x, sizeof x);
                memcpy(tape + 7, xa, sizeof xa);
                memcpy(tape + 14, xb, sizeof xb);
                memcpy(tape + 21, xc, sizeof xc);
                memcpy(tape + 28, n, 4 * sizeof(double));
                tape[32] = norm;
                tape += 33;
            }
            memcpy(x, n, sizeof x);
        }
        memcpy(states + 7 * (k + 1), x, sizeof x);
    }
}
