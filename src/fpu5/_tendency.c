/* The dealiased nonlinear tendency N of every row, one pass of it and whole
   IF-RK4 steps built on it.

   Both exports take one pointer to a loop block, which _native.loop makes
   with every array and call it points to, and return 0, or -1 with the
   Python error set when a transform raised.  fpu5_nonlinear replaces the
   state u by N(u), the operator of equations.make_nonlinear_operator;
   fpu5_if_rk4 steps the state in place a given number of times.  A pass
   stacks u times the derivative multipliers, transforms the stack to u
   and its derivatives (c2r), takes the tendency in physical space, and
   transforms it back (r2c); the mask and the mode-0 store give N.  Each
   value has the bits of the numpy reference in the tests, the pipeline
   written out and IntegratingFactorRK4.step around it, elementwise
   operation for operation and with the same operands in the same places:
   complex products by numpy's rule on the host (FPU5_FMA, which the build
   defines when numpy fuses), the division by 6 in numpy's Smith form, and
   the transforms by the same pocketfft calls on arrays of the same shapes.

   tendency reads `fields` stacked fields from f, each rows x n doubles,
   row after row: u and u_x (2, the third-order kinds) or u, u_x, u_xx and
   u_xxx (4, the fifth-order kinds); mu and d2 hold one value per row.
   out (rows x n) gets
     2 fields:  w ux,
     4 fields:  w (ux + d2 uxxx) + d2 ux ((4 mu u - 2) uxx + mu ux ux),
   w = mu u u - u, every product and sum taken in the order written, 4 mu
   formed once per row, so each value has the bits of the same formula
   written in numpy.  That holds only when the compiler fuses no multiply
   into an add: build with -ffp-contract=off and without -ffast-math. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stddef.h>

struct operands {
    const double *f, *mu, *d2;
    double *out;
    ptrdiff_t fields, rows, n;
};

static void tendency(const struct operands *a)
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

/* Complex arrays are interleaved doubles, as numpy stores complex128.  The
   tendency's f is the inverse transform's output and its out the forward
   transform's input; the arrays of `fields x rows x h` hold one block of
   rows x h per field, h = n/2 + 1 modes a row. */
struct loop {
    struct operands tendency;
    double *u;                          /* rows x h: the state */
    const double *mult;                 /* fields x h: 1, (ik)^m dealiased */
    const double *mask;                 /* h: the dealias mask, + 0i */
    double *stacked;                    /* fields x rows x h: stage input x mult */
    const double *spectrum;             /* rows x h: rfft of the tendency */
    PyObject *inverse, *inverse_args, *forward, *forward_args;
    ptrdiff_t h;
    /* read by fpu5_if_rk4 only, NULL in a block made for fpu5_nonlinear */
    const double *e_half, *e_full;      /* rows x h: exp(L dt/2), its square */
    const double *dt;                   /* 1 */
    double *a, *b, *c;                  /* rows x h: the first three stages */
};

typedef struct { double re, im; } cplx;

static inline cplx at(const double *p, ptrdiff_t i)
{
    return (cplx){p[2 * i], p[2 * i + 1]};
}

static inline void put(double *p, ptrdiff_t i, cplx v)
{
    p[2 * i] = v.re;
    p[2 * i + 1] = v.im;
}

/* x y as numpy's multiply gives it */
static inline cplx mul(cplx x, cplx y)
{
#ifdef FPU5_FMA
    return (cplx){fma(x.re, y.re, -(x.im * y.im)), fma(x.re, y.im, x.im * y.re)};
#else
    return (cplx){x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re};
#endif
}

static inline cplx add(cplx x, cplx y)
{
    return (cplx){x.re + y.re, x.im + y.im};
}

/* x / (6 + 0i) as numpy's divide gives it: Smith's form, ratio 0 */
static inline cplx div6(cplx x)
{
    const double ratio = 0.0 / 6.0, scale = 1.0 / (6.0 + 0.0 * ratio);
    return (cplx){(x.re + x.im * ratio) * scale, (x.im - x.re * ratio) * scale};
}

/* stacked[f] gets v mult[f] at mode k of row element i */
static inline void stack(const struct loop *s, ptrdiff_t i, ptrdiff_t k, cplx v)
{
    const ptrdiff_t size = s->tendency.rows * s->h;
    for (ptrdiff_t f = 0; f < s->tendency.fields; f++)
        put(s->stacked + 2 * f * size, i, mul(v, at(s->mult, f * s->h + k)));
}

/* N at element i, mode k, from the spectrum: the mask, mode 0 stored as
   +0 apart from it */
static inline cplx masked(const struct loop *s, ptrdiff_t i, ptrdiff_t k)
{
    return k ? mul(at(s->spectrum, i), at(s->mask, k)) : (cplx){0.0, 0.0};
}

/* dt N at element i, mode k */
static inline cplx scaled(const struct loop *s, ptrdiff_t i, ptrdiff_t k)
{
    return mul((cplx){*s->dt, 0.0}, masked(s, i, k));
}

/* the stacked stage input to the spectrum of its tendency */
static int transform(const struct loop *s)
{
    PyObject *done = PyObject_Call(s->inverse, s->inverse_args, NULL);
    if (!done)
        return -1;
    Py_DECREF(done);
    tendency(&s->tendency);
    done = PyObject_Call(s->forward, s->forward_args, NULL);
    if (!done)
        return -1;
    Py_DECREF(done);
    return 0;
}

/* the state to the spectrum of its tendency */
static int transform_state(const struct loop *s)
{
    for (ptrdiff_t i = 0; i < s->tendency.rows * s->h; i++)
        stack(s, i, i % s->h, at(s->u, i));
    return transform(s);
}

int fpu5_nonlinear(const struct loop *s)
{
    if (transform_state(s))
        return -1;
    for (ptrdiff_t i = 0; i < s->tendency.rows * s->h; i++)
        put(s->u, i, masked(s, i, i % s->h));
    return 0;
}

int fpu5_if_rk4(const struct loop *s, ptrdiff_t steps)
{
    const ptrdiff_t rows = s->tendency.rows, h = s->h;
    const cplx half = {0.5, 0.0}, two = {2.0, 0.0};

    for (ptrdiff_t step = 0; step < steps; step++) {
        /* a = dt N(u) */
        if (transform_state(s))
            return -1;
        /* b = dt N((u + a/2) E) */
        for (ptrdiff_t r = 0; r < rows; r++)
            for (ptrdiff_t k = 0, i = r * h; k < h; k++, i++) {
                const cplx a = scaled(s, i, k);
                put(s->a, i, a);
                stack(s, i, k, mul(add(at(s->u, i), mul(half, a)),
                                   at(s->e_half, i)));
            }
        if (transform(s))
            return -1;
        /* c = dt N(u E + b/2) */
        for (ptrdiff_t r = 0; r < rows; r++)
            for (ptrdiff_t k = 0, i = r * h; k < h; k++, i++) {
                const cplx b = scaled(s, i, k);
                put(s->b, i, b);
                stack(s, i, k, add(mul(at(s->u, i), at(s->e_half, i)),
                                   mul(half, b)));
            }
        if (transform(s))
            return -1;
        /* d = dt N(u E^2 + c E) */
        for (ptrdiff_t r = 0; r < rows; r++)
            for (ptrdiff_t k = 0, i = r * h; k < h; k++, i++) {
                const cplx c = scaled(s, i, k);
                put(s->c, i, c);
                stack(s, i, k, add(mul(at(s->u, i), at(s->e_full, i)),
                                   mul(c, at(s->e_half, i))));
            }
        if (transform(s))
            return -1;
        /* u' = u E^2 + (a E^2 + 2 (b + c) E + d) / 6 */
        for (ptrdiff_t r = 0; r < rows; r++)
            for (ptrdiff_t k = 0, i = r * h; k < h; k++, i++) {
                const cplx e = at(s->e_half, i), e2 = at(s->e_full, i);
                const cplx sum = add(add(mul(at(s->a, i), e2),
                                         mul(mul(two, add(at(s->b, i),
                                                          at(s->c, i))), e)),
                                     scaled(s, i, k));
                put(s->u, i, add(mul(at(s->u, i), e2), div6(sum)));
            }
    }
    return 0;
}
