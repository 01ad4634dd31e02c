/* The fifth-order nonlinear tendency of every row, in physical space.

   f holds u, u_x, u_xx and u_xxx one after another, each rows x n doubles,
   row after row; mu and d2 hold one value per row.  out (rows x n) gets
   w (ux + d2 uxxx) + d2 ux ((4 mu u - 2) uxx + mu ux ux), w = mu u u - u,
   every product and sum taken in the order written, 4 mu formed once per
   row, so each value has the bits of the same formula written in numpy.
   That holds only when the compiler fuses no multiply into an add:
   build with -ffp-contract=off and without -ffast-math. */

#include <stddef.h>

void fpu5_fifth_order_tendency(const double *f, const double *mu,
                               const double *d2, double *out,
                               ptrdiff_t rows, ptrdiff_t n)
{
    const ptrdiff_t size = rows * n;
    const double *u = f, *ux = f + size, *uxx = f + 2 * size,
                 *uxxx = f + 3 * size;

    for (ptrdiff_t r = 0; r < rows; r++) {
        const double m = mu[r], m4 = 4.0 * m, d = d2[r];
        for (ptrdiff_t i = r * n; i < (r + 1) * n; i++) {
            const double w = m * u[i] * u[i] - u[i];
            out[i] = w * (ux[i] + d * uxxx[i])
                     + d * ux[i] * ((m4 * u[i] - 2.0) * uxx[i]
                                    + m * ux[i] * ux[i]);
        }
    }
}
