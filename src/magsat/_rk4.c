/* `dynamics._rk4_rollout` and `_rk4.reference_sensitivity` in C: the same
 * float operations in the same order.
 *
 * Every expression of the Python functions is written here with each
 * left-to-right chain parenthesized as Python evaluates it, and every matrix
 * product as the reference's ordered sum, so that a double-precision build
 * without contraction (-ffp-contract=off, no fast-math) rounds every value
 * as CPython and numpy's elementwise ufuncs do. `_rk4.py` builds this file,
 * checks the build against the Python functions and loads it with ctypes.
 *
 * magsat_rk4_rollout: `in` holds 14 + 6p doubles: the start state (7), the
 * inertia (ix, iy, iz) and its gyroscopic differences (iy - iz, iz - ix,
 * ix - iy) as Python computed them, the step length h, then the p held
 * dipoles and the p orbital-frame fields (3 each). states receives the p + 1
 * interval-end states, the start first. A non-null tape receives one record
 * of 33 doubles per step: x, xa, xb, xc, the renormalized quaternion and the
 * norm before renormalization. magsat_rk4_sensitivity turns such a tape into
 * the rollout's Jacobian.
 */
#include <math.h>
#include <string.h>

/* The orbital-frame field b in body axes at the stage y, v = R(q) b, in
 * `_rk4_rollout`'s folded form: bx2, by2, bz2 are the field doubled. */
static inline void body_field(const double *y, double *v, double bx, double by, double bz,
                              double bx2, double by2, double bz2)
{
    const double xx = y[0] * y[0], yy = y[1] * y[1], zz = y[2] * y[2], ww = y[3] * y[3];
    const double q12 = y[0] * y[1], q34 = y[2] * y[3], q13 = y[0] * y[2];
    const double q24 = y[1] * y[3], q23 = y[1] * y[2], q14 = y[0] * y[3];
    v[0] = (((xx - yy) - zz) + ww) * bx + (((q12 + q34) * by2) + ((q13 - q24) * bz2));
    v[1] = (((q12 - q34) * bx2) + ((q23 + q14) * bz2)) + ((((yy - xx) - zz) + ww) * by);
    v[2] = (((q13 + q24) * bx2) + ((q23 - q14) * by2)) + (((zz - (xx + yy)) + ww) * bz);
}

/* One slope of the right-hand side at the stage y, `_rk4_rollout`'s folded
 * form: the kinematic rows r[0..3] hold twice the slope. */
static inline void slope(const double *y, double *r, double mx, double my, double mz,
                         double bx, double by, double bz, double bx2, double by2, double bz2,
                         const double *g)
{
    double v[3];
    body_field(y, v, bx, by, bz, bx2, by2, bz2);
    r[0] = ((y[3] * y[4]) - (y[2] * y[5])) + (y[1] * y[6]);
    r[1] = ((y[2] * y[4]) + (y[3] * y[5])) - (y[0] * y[6]);
    r[2] = ((y[0] * y[5]) - (y[1] * y[4])) + (y[3] * y[6]);
    r[3] = (((-y[0]) * y[4]) - (y[1] * y[5])) - (y[2] * y[6]);
    r[4] = (((g[3] * y[5]) * y[6]) + ((my * v[2]) - (mz * v[1]))) / g[0];
    r[5] = (((g[4] * y[6]) * y[4]) + ((mz * v[0]) - (mx * v[2]))) / g[1];
    r[6] = (((g[5] * y[4]) * y[5]) + ((mx * v[1]) - (my * v[0]))) / g[2];
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

/* c = a b, a of rows x n (row stride lda), b of n x cols (row stride ldb),
 * c of rows x cols (row stride ldc): every entry an ordered sum over the
 * inner index, left to right, that starts from its first product. */
static void product(const double *a, long lda, const double *b, long ldb, double *c, long ldc,
                    long rows, long n, long cols)
{
    for (long i = 0; i < rows; i++) {
        const double *ai = a + i * lda;
        double *ci = c + i * ldc;
        for (long j = 0; j < cols; j++)
            ci[j] = ai[0] * b[j];
        for (long l = 1; l < n; l++)
            for (long j = 0; j < cols; j++)
                ci[j] = ci[j] + ai[l] * b[l * ldb + j];
    }
}

/* [df/dy | df/dm] of the right-hand side at the stage y, row by row into
 * the 7 x 10 array jac, each entry written out; c holds the gyroscopic
 * coefficients (iy - iz) / ix, ... and the inverse moments 1 / ix, ... */
static void stage_jacobian(const double *y, double *jac, const double *m, double bx, double by,
                           double bz, double bx2, double by2, double bz2, const double *c)
{
    const double q1 = y[0], q2 = y[1], q3 = y[2], q4 = y[3], wx = y[4], wy = y[5], wz = y[6];
    const double mx = m[0], my = m[1], mz = m[2];
    double v[3], d[3][4];
    body_field(y, v, bx, by, bz, bx2, by2, bz2);
    /* d[l][j] = dv_l / dq_j, linear in q: one term per component of the doubled field */
    d[0][0] = ((q1 * bx2) + (q2 * by2)) + (q3 * bz2);
    d[0][1] = (((-q2) * bx2) + (q1 * by2)) - (q4 * bz2);
    d[0][2] = (((-q3) * bx2) + (q4 * by2)) + (q1 * bz2);
    d[0][3] = ((q4 * bx2) + (q3 * by2)) - (q2 * bz2);
    d[1][0] = ((q2 * bx2) - (q1 * by2)) + (q4 * bz2);
    d[1][1] = ((q1 * bx2) + (q2 * by2)) + (q3 * bz2);
    d[1][2] = (((-q4) * bx2) - (q3 * by2)) + (q2 * bz2);
    d[1][3] = (((-q3) * bx2) + (q4 * by2)) + (q1 * bz2);
    d[2][0] = ((q3 * bx2) - (q4 * by2)) - (q1 * bz2);
    d[2][1] = ((q4 * bx2) + (q3 * by2)) - (q2 * bz2);
    d[2][2] = ((q1 * bx2) + (q2 * by2)) + (q3 * bz2);
    d[2][3] = ((q2 * bx2) - (q1 * by2)) + (q4 * bz2);
    memset(jac, 0, 70 * sizeof(double));
    /* the kinematic rows, (1/2) d(M(q) w)/d(q, w) */
    jac[1] = 0.5 * wz, jac[2] = -0.5 * wy, jac[3] = 0.5 * wx;
    jac[4] = 0.5 * q4, jac[5] = -0.5 * q3, jac[6] = 0.5 * q2;
    jac[10] = -0.5 * wz, jac[12] = 0.5 * wx, jac[13] = 0.5 * wy;
    jac[14] = 0.5 * q3, jac[15] = 0.5 * q4, jac[16] = -0.5 * q1;
    jac[20] = 0.5 * wy, jac[21] = -0.5 * wx, jac[23] = 0.5 * wz;
    jac[24] = -0.5 * q2, jac[25] = 0.5 * q1, jac[26] = 0.5 * q4;
    jac[30] = -0.5 * wx, jac[31] = -0.5 * wy, jac[32] = -0.5 * wz;
    jac[34] = -0.5 * q1, jac[35] = -0.5 * q2, jac[36] = -0.5 * q3;
    /* the torque rows: I^-1 (m x dv/dq), the gyroscopic terms and -I^-1 [v]x */
    for (int j = 0; j < 4; j++) {
        jac[40 + j] = ((my * d[2][j]) - (mz * d[1][j])) * c[3];
        jac[50 + j] = ((mz * d[0][j]) - (mx * d[2][j])) * c[4];
        jac[60 + j] = ((mx * d[1][j]) - (my * d[0][j])) * c[5];
    }
    jac[45] = c[0] * wz, jac[46] = c[0] * wy, jac[54] = c[1] * wz;
    jac[56] = c[1] * wx, jac[64] = c[2] * wy, jac[65] = c[2] * wx;
    jac[48] = v[2] * c[3], jac[49] = -(v[1] * c[3]);
    jac[57] = -(v[2] * c[4]), jac[59] = v[0] * c[4];
    jac[67] = v[1] * c[5], jac[68] = -(v[0] * c[5]);
}

/* `_rk4.reference_sensitivity` in C: d(x_1..x_p)/d(m_0..m_{p-1}) of a taped
 * rollout, the same float operations in the same order.
 *
 * `in` holds 4 + 6p doubles: the inertia (ix, iy, iz), Ts, then the p held
 * dipoles and the p orbital-frame fields (3 each). tape holds the rollout's
 * p * substeps records of 33 doubles. sens receives the (7p, 3p) Jacobian,
 * row-major. Each step's (7, 10) map of (start state, dipole) is the RK4
 * tableau on the four stage Jacobians, passed through the renormalization
 * q <- q / |q|; the steps chain into each interval's map, and the intervals
 * into the block lower-triangular Jacobian.
 */
void magsat_rk4_sensitivity(const double *in, const double *tape, long p, long substeps,
                            double *sens)
{
    const double ix = in[0], iy = in[1], iz = in[2], ts = in[3];
    const double *m = in + 4, *b = in + 4 + 3 * p;
    const double c[6] = {(iy - iz) / ix, (iz - ix) / iy, (ix - iy) / iz, 1.0 / ix, 1.0 / iy,
                         1.0 / iz};
    const double h = ts / (double)substeps, h2 = 0.5 * h, h6 = h / 6.0;
    const long w = 3 * p;
    double jac[4][70], k2[70], k3[70], k4[70], s[70], phi[70], map[70], dot[10];
    memset(sens, 0, 21 * p * p * sizeof(double));
    for (long k = 0; k < p; k++) {
        const double bx = b[3 * k], by = b[3 * k + 1], bz = b[3 * k + 2];
        const double bx2 = 2.0 * bx, by2 = 2.0 * by, bz2 = 2.0 * bz;
        for (long st = 0; st < substeps; st++, tape += 33) {
            for (int i = 0; i < 4; i++)
                stage_jacobian(tape + 7 * i, jac[i], m + 3 * k, bx, by, bz, bx2, by2, bz2, c);
            /* the tableau: k1 = jac[0], then k_i = jac[i-1] + a_i h A_(i-1) k_(i-1), where
             * A is a stage Jacobian's first 7 columns and a_i is 1/2, 1/2, 1 */
            product(jac[1], 10, jac[0], 10, s, 10, 7, 7, 10);
            for (int e = 0; e < 70; e++)
                k2[e] = jac[1][e] + h2 * s[e];
            product(jac[2], 10, k2, 10, s, 10, 7, 7, 10);
            for (int e = 0; e < 70; e++)
                k3[e] = jac[2][e] + h2 * s[e];
            product(jac[3], 10, k3, 10, s, 10, 7, 7, 10);
            for (int e = 0; e < 70; e++)
                k4[e] = jac[3][e] + h * s[e];
            for (int e = 0; e < 70; e++)
                phi[e] = h6 * ((jac[0][e] + k4[e]) + 2.0 * (k2[e] + k3[e]));
            for (int i = 0; i < 7; i++)
                phi[11 * i] = phi[11 * i] + 1.0;
            /* the renormalization's Jacobian (I - n n') / |q| on the quaternion rows */
            const double *n = tape + 28, norm = tape[32];
            product(n, 4, phi, 10, dot, 10, 1, 4, 10);
            for (int i = 0; i < 4; i++)
                for (int j = 0; j < 10; j++)
                    phi[10 * i + j] = (phi[10 * i + j] - n[i] * dot[j]) / norm;
            if (st == 0) {
                memcpy(map, phi, sizeof map);
            } else {
                product(phi, 10, map, 10, s, 10, 7, 7, 10);
                for (int i = 0; i < 7; i++)
                    for (int j = 7; j < 10; j++)
                        s[10 * i + j] = s[10 * i + j] + phi[10 * i + j];
                memcpy(map, s, sizeof map);
            }
        }
        /* row block k: its own dipole's block, then the chain through the blocks above */
        double *rows = sens + 7 * k * w;
        for (int i = 0; i < 7; i++)
            for (int j = 0; j < 3; j++)
                rows[i * w + 3 * k + j] = map[10 * i + 7 + j];
        if (k > 0)
            product(map, 10, rows - 7 * w, w, rows, w, 7, 7, 3 * k);
    }
}
