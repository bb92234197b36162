/* Plain-C matrix-multiply kernels, loaded through ctypes by _kernels_c.py.
 *
 * o = a @ b for row-major, C-contiguous a (n x k), b (k x m) and o (n x m);
 * o must not overlap a or b. Every output element starts at +0.0 and adds
 * a[i, p] * b[p, j] for p = 0, 1, ..., k - 1 in that order, with one rounded
 * multiply and one rounded add per term: the summation order of the NumPy
 * kernels in _kernels_py.py, so both give the same bits. Build with
 * -ffp-contract=off so that no multiply-add is fused, and without
 * -ffast-math, which would let the compiler reorder the sums.
 *
 * The loop order is i-p-j: o[i, :] += a[i, p] * b[p, :], which the compiler
 * vectorizes over j. Four rows of o are updated per pass over b[p, :], so
 * each element of b loaded serves four multiply-adds (register blocking
 * over rows, after Goto and van de Geijn, ACM TOMS 2008, and Van Zee and
 * van de Geijn, ACM TOMS 2015); the rows left over run one at a time. Each
 * output element is still summed by its own sequence of adds, so the
 * blocking changes no bit.
 */

#define MATMUL(NAME, T)                                                       \
    void NAME(const T *a, const T *b, T *o, long n, long k, long m)          \
    {                                                                         \
        long i = 0, p, j;                                                     \
        for (; i + 4 <= n; i += 4) {                                          \
            T *restrict o0 = o + i * m, *restrict o1 = o0 + m;                \
            T *restrict o2 = o1 + m, *restrict o3 = o2 + m;                   \
            const T *a0 = a + i * k, *a1 = a0 + k, *a2 = a1 + k, *a3 = a2 + k;\
            for (j = 0; j < m; j++)                                           \
                o0[j] = o1[j] = o2[j] = o3[j] = 0;                            \
            for (p = 0; p < k; p++) {                                         \
                const T x0 = a0[p], x1 = a1[p], x2 = a2[p], x3 = a3[p];       \
                const T *restrict bp = b + p * m;                             \
                for (j = 0; j < m; j++) {                                     \
                    const T y = bp[j];                                        \
                    o0[j] += x0 * y;                                          \
                    o1[j] += x1 * y;                                          \
                    o2[j] += x2 * y;                                          \
                    o3[j] += x3 * y;                                          \
                }                                                             \
            }                                                                 \
        }                                                                     \
        for (; i < n; i++) {                                                  \
            T *restrict o0 = o + i * m;                                       \
            for (j = 0; j < m; j++)                                           \
                o0[j] = 0;                                                    \
            for (p = 0; p < k; p++) {                                         \
                const T x0 = a[i * k + p];                                    \
                const T *restrict bp = b + p * m;                             \
                for (j = 0; j < m; j++)                                       \
                    o0[j] += x0 * bp[j];                                      \
            }                                                                 \
        }                                                                     \
    }

MATMUL(matmul_f32, float)
MATMUL(matmul_f64, double)
