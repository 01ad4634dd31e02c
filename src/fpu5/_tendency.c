/* The nonlinear tendency of every row, in physical space.

   fpu5_tendency takes one pointer to an operand block, which _native.tendency
   makes with every array it points to.  f holds `fields` stacked fields,
   each rows x n doubles, row after row: u and u_x (2, the third-order
   kinds) or u, u_x, u_xx and u_xxx (4, the fifth-order kinds); mu and d2
   hold one value per row.  out (rows x n) gets
     2 fields:  w ux,
     4 fields:  w (ux + d2 uxxx) + d2 ux ((4 mu u - 2) uxx + mu ux ux),
   w = mu u u - u, every product and sum taken in the order written, 4 mu
   formed once per row, so each value has the bits of the same formula
   written in numpy.  That holds only when the compiler fuses no multiply
   into an add: build with -ffp-contract=off and without -ffast-math. */

#include <stddef.h>

struct operands {
    const double *f, *mu, *d2;
    double *out;
    ptrdiff_t fields, rows, n;
};

void fpu5_tendency(const struct operands *a)
{
    const ptrdiff_t rows = a->rows, n = a->n, size = rows * n;
    const double *u = a->f, *ux = a->f + size;
    double *out = a->out;

    if (a->fields == 2) {
        for (ptrdiff_t r = 0; r < rows; r++) {
            const double m = a->mu[r];
            for (ptrdiff_t i = r * n; i < (r + 1) * n; i++)
                out[i] = (m * u[i] * u[i] - u[i]) * ux[i];
        }
        return;
    }
    const double *uxx = a->f + 2 * size, *uxxx = a->f + 3 * size;
    for (ptrdiff_t r = 0; r < rows; r++) {
        const double m = a->mu[r], m4 = 4.0 * m, d = a->d2[r];
        for (ptrdiff_t i = r * n; i < (r + 1) * n; i++) {
            const double w = m * u[i] * u[i] - u[i];
            out[i] = w * (ux[i] + d * uxxx[i])
                     + d * ux[i] * ((m4 * u[i] - 2.0) * uxx[i]
                                    + m * ux[i] * ux[i]);
        }
    }
}
