/* Plain-C kernels, loaded through ctypes by _kernels_c.py: matrix products
 * (gemm_f32, gemm_f64), SplitMix64 uniform draws (uniform_f64) and the two
 * passes of train-demo's clipped SGD step (sum_squares_f32, the squared
 * gradient norm, and sub_scaled_f32, the update), the last two at the end
 * of this file. Each entry gives the bits of its NumPy twin in
 * _kernels_py.py.
 *
 * One entry per dtype, gemm_f32 and gemm_f64, runs three kinds of product:
 *
 * - plain (off == NULL): o = a @ b, a n x k, b k x m, o n x m;
 * - grouped rows (off != NULL, inner == 0): rows [off[s], off[s+1]) of a
 *   and o take o = a @ b_s, with b_s = b + s * bks the s-th matrix of a
 *   stack, for s = 0 .. nseg - 1;
 * - grouped inner index (off != NULL, inner == 1): o_s = o + s * oks is
 *   a[:, off[s]:off[s+1]] @ b[off[s]:off[s+1], :], each n x m; an empty
 *   segment gives zeros.
 *
 * Element (i, p) of a is a[i * ars + p * acs] and element (p, j) of b is
 * b[p * brs + j * bcs], so a transposed operand is a swap of its strides
 * and is never copied from Python. o is row-major with rows of m
 * elements and must not overlap a or b. The caller checks every shape,
 * stride and offset; this file trusts them.
 *
 * Every output element starts at +0.0 and adds a[i, p] * b[p, j] for
 * p = 0, 1, ..., k - 1 in that order, with one rounded multiply and one
 * rounded add per term: the summation order of the NumPy kernels in
 * _kernels_py.py, so both give the same bits, whatever the strides or the
 * segments. Build with -ffp-contract=off so that no multiply-add is fused,
 * and without -ffast-math, which would let the compiler reorder the sums.
 *
 * The loop order is i-p-j: o[i, :] += a[i, p] * b[p, :], which the compiler
 * vectorizes over j when b's rows are contiguous (bcs == 1). Four rows of
 * o are updated per pass over b[p, :], so each element of b loaded serves
 * four multiply-adds (register blocking over rows, after Goto and van de
 * Geijn, ACM TOMS 2008, and Van Zee and van de Geijn, ACM TOMS 2015); the
 * rows left over run one at a time. When b is a transposed view
 * (bcs != 1), panels of up to PANEL of its columns are first gathered into
 * a row-major buffer, which the same loop then reads; the gather copies
 * GATHER inner indices of a column at a time, so that each read of the
 * stored matrix is a contiguous run. Each output element is still summed
 * by its own sequence of adds, so neither the blocking nor the gather
 * changes a bit.
 *
 * On x86-64 that loop is built three times, for AVX-512F (16 f32 lanes),
 * AVX2 (8) and the x86-64 baseline SSE2 (4), by GCC's target_clones, and
 * the dynamic loader keeps the widest one the CPU supports when the
 * library loads (an IFUNC resolver), so one library serves every host
 * that shares the checkout. The lanes are separate output elements of one
 * row, so every variant adds the same terms in the same order and gives
 * the same bits. gemm_isa names the variant that runs, by the same CPU
 * test in the same priority order as the resolver. Other architectures
 * build the loop once, as "default".
 *
 * Where gemm_isa names avx512f, products run instead on a register tile
 * (the micro-kernel of the two papers above): an MR x 2L block of o, L
 * the 16 f32 or 8 f64 lanes of a 64-byte vector, stays in 2 * MR vector
 * registers while the tile reads 2L columns of b, one row of b at a time.
 * Each term is one broadcast of a[i, p], then a separate multiply and add
 * per vector of b[p, :], so the tile adds the same terms in the same
 * order and gives the same bits. Rows left over run on 4-, 2- and 1-row
 * tiles, the m % 2L columns left over on the i-p-j loop. The tile walks b
 * in blocks of rows, starting from +0.0 at the first block and from the
 * running sums it stored to o after the block before; a sum stored and
 * reloaded is the same value. It reads each block one of two ways:
 *
 * - PACKED, for a plain product of more than MR rows: the first
 *   mt = m - m % 2L columns of each block of kc rows are copied, one
 *   contiguous run per row, into panels of kc x 2L elements in a buffer of
 *   WIDE_BUF bytes or less (or of one row, where a row is larger), which
 *   stays in L2 while the two or more tiles over each panel read it (the
 *   papers' packing); a product with fewer than kc rows of b packs them
 *   all. infer-fine's shared-expert products, 64 x 256 @ 256 x 1024 and
 *   64 x 1024 @ 1024 x 256, took 0.55 and 0.49 ms packed against 0.66 and
 *   0.63 with the tile reading all of b's rows in place
 *   (BENCH_one_schedule.json), and 0.49-0.50 ms packed against 0.50-0.52
 *   read in place in KC-row blocks (BENCH_stream_rows.json).
 * - IN_PLACE, for every other product: plain products of at most MR
 *   rows, one-row products included, and every grouped segment. The tile
 *   reads b where it lies, rows ldb apart, in blocks of KC rows. At most
 *   MR rows need one tile per panel, so a packed copy would be read once,
 *   just after it was written: packing pays only where a panel is read
 *   again. Reading in place keeps KC row streams in flight for the
 *   prefetcher and overlaps the reads with the arithmetic. On b mapped
 *   from a reference-dims file, where the 165 MB shared expert comes from
 *   DRAM, 8 x 1536 @ 1536 x 8960 took 4.7-5.0 ms in place against 7.8-8.1
 *   packed, 8 x 8960 @ 8960 x 1536 5.1-5.3 against 7.5-7.7, and the
 *   one-row products 3.0-3.3 against 4.5-4.8 on the i-p-j loop
 *   (BENCH_stream_rows.json). KC = 16 to 32 were equally fast; KC = 48
 *   took 9.2-9.7 ms and KC = 64 19-20 ms at 8 x 1536 @ 1536 x 8960.
 *   BENCH_wide_panels.json's 6.3-6.5 ms for the packed 8-row product was
 *   measured on a host whose 300 MB L3 held b.
 *
 * A grouped segment is read by one tile or a few, and an expert's matrix
 * stays in L2 while they read it (256 x 128 f32, 128 KB, in
 * train-coarse). Over the 64 experts x 8 rows of a train-coarse step,
 * min of 30 calls (BENCH_grouped_tile.json): x @ w1[k] took 0.93 ms
 * against 1.22 on the loop, x_k^T @ d_up_k 1.06 against 1.63,
 * h_k^T @ d_out_k 1.11 against 1.77 and d_out @ w2[k]^T 2.05 against
 * 3.34; on the packed tile the same segments took 0.98, 1.06, 1.15 and
 * 2.25, each allocating a buffer. Its one-row segments run on the
 * one-row tile: x @ w1[k] took 0.75-0.77 ms so, against 0.88-0.89 with
 * them on the loop (BENCH_stream_rows.json).
 *
 * A transposed b is first gathered into row-major panels of PANEL
 * columns, as for the loop, and each of them is then read like any other
 * b: gathering it straight into the tile's panels reads it by columns,
 * and in a prototype 8 x 1536 @ (8960 x 1536)^T took 40-105 ms that way,
 * against 36 through the PANEL gather.
 *
 * AVX2 and SSE2 hosts keep the i-p-j loop for every product: their
 * registers do not hold the 64-byte tile (built for AVX2, 1.2-1.3
 * GFLOP/s against 14-19 for the i-p-j loop on the shared expert's f32
 * products).
 *
 * A product of 2 * PART_MIN multiply-adds or more is split into parts of
 * PART_MIN or more, one per thread of a worker pool at most. The pool's
 * threads, the calling thread included, are the CPUs in the process's
 * affinity mask when the library loads (sched_getaffinity; 1 on other
 * systems), and gemm_threads returns their number. As Smith et al.,
 * "Anatomy of High-Performance Many-Threaded Matrix Multiplication"
 * (IPDPS 2014), split the loops around the micro-kernel and never its
 * inner index, a plain product splits by output columns, in whole panels
 * of 2L (the last part takes the m % 2L columns left over), so that the
 * parts of a few-row product read separate columns of b; a grouped-rows
 * product splits into runs of whole segments balanced by rows, and a
 * grouped-inner-index product into runs balanced by inner length. Every
 * output element is still summed whole, by one thread, from +0.0, in
 * ascending inner-index order, on the path it takes unsplit, so every
 * split gives the same bits. Reading b mapped from a reference-dims file,
 * 8 x 1536 @ 1536 x 8960 took 2.5-3.0 ms on two threads against 4.5-5.2
 * on one, and infer-fine's 64 x 256 @ 256 x 1024 0.26-0.28 against
 * 0.51-0.52 (BENCH_threads.json).
 *
 * The caller and the workers claim parts in turn, and the caller runs
 * whatever no worker has claimed, so a product never waits for a worker
 * that has not woken. Workers sleep on a condition variable between
 * products and never spin, so a CPU the pool does not use stays free for
 * the caller's other threads. Each part has its own PANEL gather buffer
 * and packing buffer, which the caller lends it from one buffer that the
 * pool keeps from product to product and grows as needed, so a worker
 * never allocates and no part can fail.
 * Allocating the parts' buffers and freeing them in every product, up to
 * 1 MB for two parts, let glibc's heap grow by fragments: perfbench's
 * peak RSS on train-coarse read 10-13% above the one-thread library's. A
 * second caller that finds the pool busy runs its product alone, on its
 * own thread, with buffers of its own; fork waits for a product in
 * flight, and a forked child starts its own workers.
 *
 * Loading the library also fixes glibc's heap policy for the whole
 * process (mallopt): blocks under M_MMAP_THRESHOLD = 32 MiB come from the
 * heap, and the heap hands free memory at its top back to the system only
 * past M_TRIM_THRESHOLD = 64 MiB. 32 MiB is DEFAULT_MMAP_THRESHOLD_MAX on
 * 64-bit systems, the ceiling of glibc's own dynamic rule, which sets the
 * trim threshold to twice the mmap threshold: the process starts where
 * that rule would end after freeing one 32 MiB block. Left to the rule,
 * every backward got the operands' large NumPy arrays, 8 MB gradient
 * stacks among them, as fresh pages, which the kernel zero-fills on the
 * first touch by a worker and which go back to it when freed. Per
 * in-process train-demo op at train-coarse dims (NVShard h=256, H=1024,
 * batch 64, 2 steps; 20 ops after 2 warm-ups in each of two processes,
 * BENCH_heap_policy.json), minor faults went from 6,300-7,100 to 0-16;
 * backward from 4,600-5,400 faults to 0 and 21.9-23.5 ms to 14.3-15.0
 * (min), upcycle from about 1,520 faults to 0-9 and 8.4-9.1 ms to
 * 4.7-4.8, the grouped d_w1/d_wg products (8 MB outputs of 64 x 256 x
 * 128) from 5.7-6.5 ms to 3.4, d_w2 from 2.6-2.7 to 1.7-1.9 and the
 * shared expert's weight gradients from 3.7-3.9 to 2.0-2.1. The policy
 * overrides MALLOC_MMAP_THRESHOLD_, MALLOC_TRIM_THRESHOLD_ and
 * GLIBC_TUNABLES' malloc settings; the NumPy kernels leave it alone.
 */

#define _GNU_SOURCE
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#define PANEL 256
#define MR 8
#define KC 32
#define WIDE_BUF (1L << 19)
#define GATHER 16
/* The fewest multiply-adds in one part of a split product, so a product of
 * fewer than 2 * PART_MIN stays on the calling thread. A hand-off (waking
 * a sleeping worker, then waiting for its part) cost 5-10 us on a 2-CPU
 * AVX-512F host. With every product of two panels or more split, against
 * one thread (min of 225 calls): 1 x 512 @ 512 x 1024 (2^19 multiply-adds)
 * took 84 against 69 us and infer-fine's 128-row grouped h @ w2[k] (2^19)
 * 52 against 52; at 2^20 its grouped x @ w1[k] took 71 against 120 and
 * 64 x 128 @ 128 x 128 35 against 37. Over the whole infer-fine forward
 * (min-median of 200, the builds in turn), PART_MIN = 2^18 ran in
 * 2.15-2.43 ms, 2^19 in 2.24-2.48 and 2^20 in 2.26-2.60, against
 * 3.03-3.26 on one thread (BENCH_threads.json). */
#define PART_MIN (1L << 18)

/* The paths of a product: the i-p-j loop, or the register tile over a
 * packed copy of b or over b in place. */
enum { LOOP, PACKED, IN_PLACE };

#if defined(__x86_64__)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#define AVX512F __attribute__((target("avx512f")))
#else
#define CLONES
#define AVX512F
#endif

typedef float v16sf __attribute__((vector_size(64)));
typedef double v8df __attribute__((vector_size(64)));

const char *gemm_isa(void)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return "avx512f";
    if (__builtin_cpu_supports("avx2"))
        return "avx2";
#endif
    return "default";
}

/* Whether products run on the register tile: where gemm_isa names
 * avx512f, decided once when the library loads. */
static int tiled;

/* The worker pool: threads - 1 workers and the calling thread, threads
 * being the CPUs the process may run on when the library loads. The
 * caller that holds busy posts its product's parts under lock and
 * broadcasts wake; then every thread, the caller included, claims the next
 * part until none is left, and the caller waits on done until left, the
 * parts not yet finished, is 0. So a worker that a busy CPU keeps from
 * waking delays nothing: the caller runs the parts it leaves. A worker
 * reads the product only through a part it claimed, so one that wakes
 * after the product has ended finds none. Workers start on the first
 * product that splits (again in a forked child, which has none) and
 * sleep on wake in between. */
static int threads = 1, started;
static pthread_mutex_t busy = PTHREAD_MUTEX_INITIALIZER;
static pthread_mutex_t lock = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t wake = PTHREAD_COND_INITIALIZER;
static pthread_cond_t done = PTHREAD_COND_INITIALIZER;
static int parts, next, left;
static void (*part_fn)(const void *, int);
static const void *part_job;

int gemm_threads(void)
{
    return threads;
}

static void *worker(void *arg)
{
    int i;
    (void)arg;
    pthread_mutex_lock(&lock);
    for (;;) {
        while (next >= parts)
            pthread_cond_wait(&wake, &lock);
        i = next++;
        pthread_mutex_unlock(&lock);
        part_fn(part_job, i);
        pthread_mutex_lock(&lock);
        if (--left == 0)
            pthread_cond_signal(&done);
    }
    return NULL;
}

/* Starts the workers, with every signal blocked so that signals reach the
 * caller's threads; called with busy held. Where a thread cannot be
 * created, the pool keeps those that were. */
static void start_workers(void)
{
    pthread_attr_t attr;
    pthread_t id;
    sigset_t all, old;
    int i;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    pthread_attr_init(&attr);
    pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
    for (i = 1; i < threads; i++)
        if (pthread_create(&id, &attr, worker, NULL))
            threads = i;
    pthread_attr_destroy(&attr);
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    started = 1;
}

/* Runs fn(job, i) once for each i = 0 .. n - 1, on the calling thread,
 * which holds busy, and on the workers. */
static void share(void (*fn)(const void *, int), const void *job, int n)
{
    int i;
    pthread_mutex_lock(&lock);
    part_fn = fn;
    part_job = job;
    parts = n;
    next = 0;
    left = n;
    pthread_cond_broadcast(&wake);
    while (next < parts) {
        i = next++;
        pthread_mutex_unlock(&lock);
        fn(job, i);
        pthread_mutex_lock(&lock);
        left--;
    }
    while (left > 0)
        pthread_cond_wait(&done, &lock);
    pthread_mutex_unlock(&lock);
}

/* fork waits for a product in flight on the pool; the child, whose copy
 * of the pool has no workers, starts afresh. */
static void fork_prepare(void)
{
    pthread_mutex_lock(&busy);
}

static void fork_parent(void)
{
    pthread_mutex_unlock(&busy);
}

static void fork_child(void)
{
    pthread_mutex_init(&busy, NULL);
    pthread_mutex_init(&lock, NULL);
    pthread_cond_init(&wake, NULL);
    pthread_cond_init(&done, NULL);
    started = 0;
}

__attribute__((constructor)) static void setup(void)
{
#if defined(__linux__)
    cpu_set_t cpus;
    if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0)
        threads = CPU_COUNT(&cpus);
#endif
    tiled = strcmp(gemm_isa(), "avx512f") == 0;
    pthread_atfork(fork_prepare, fork_parent, fork_child);
#ifdef __GLIBC__
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
}

/* The buffer the caller that holds busy lends the parts of its product,
 * kept from product to product and grown as needed. */
static void *kept;
static size_t kept_size;

/* size bytes, 64-aligned: the kept buffer where the caller holds busy
 * (pooled), else a buffer of its own; NULL when none can be allocated. */
static void *buffer(size_t size, int pooled)
{
    if (!pooled)
        return aligned_alloc(64, size);
    if (size > kept_size) {
        free(kept);
        kept = aligned_alloc(64, size);
        kept_size = kept ? size : 0;
    }
    return kept;
}

/* One product as an entry received it, and its split: parts, and per
 * part gather + pack elements of buf, a PANEL gather buffer and then a
 * packing buffer, each a multiple of 64 bytes. */
struct job {
    const void *a, *b;
    void *o, *buf;
    long ars, acs, brs, bcs, bks, oks, n, k, m, nseg, gather, pack;
    const int64_t *off;
    int inner, path, parts;
};

/* The first segment of part i: segments go to parts in order, each part
 * taking those whose offsets start in about 1 / parts of the last
 * offset's range, so rows (grouped rows) or inner length (grouped inner
 * index) balance. */
static long first_segment(const struct job *j, int i)
{
    long s = 0;
    if (i == j->parts)
        return j->nseg;
    while (s < j->nseg && j->off[s] * j->parts < j->off[j->nseg] * i)
        s++;
    return s;
}

#define GEMM(NAME, T, V)                                                      \
    /* o (rows of ldo) = a @ b for b with contiguous rows of ldb. */          \
    CLONES static void NAME##_block(const T *a, long ars, long acs,           \
                                    const T *b, long ldb, T *o, long ldo,     \
                                    long n, long k, long m)                   \
    {                                                                         \
        long i = 0, p, j;                                                     \
        for (; i + 4 <= n; i += 4) {                                          \
            T *restrict o0 = o + i * ldo, *restrict o1 = o0 + ldo;            \
            T *restrict o2 = o1 + ldo, *restrict o3 = o2 + ldo;               \
            const T *a0 = a + i * ars, *a1 = a0 + ars;                        \
            const T *a2 = a1 + ars, *a3 = a2 + ars;                           \
            for (j = 0; j < m; j++)                                           \
                o0[j] = o1[j] = o2[j] = o3[j] = 0;                            \
            for (p = 0; p < k; p++) {                                         \
                const T x0 = a0[p * acs], x1 = a1[p * acs];                   \
                const T x2 = a2[p * acs], x3 = a3[p * acs];                   \
                const T *restrict bp = b + p * ldb;                           \
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
            T *restrict o0 = o + i * ldo;                                     \
            const T *a0 = a + i * ars;                                        \
            for (j = 0; j < m; j++)                                           \
                o0[j] = 0;                                                    \
            for (p = 0; p < k; p++) {                                         \
                const T x0 = a0[p * acs];                                     \
                const T *restrict bp = b + p * ldb;                           \
                for (j = 0; j < m; j++)                                       \
                    o0[j] += x0 * bp[j];                                      \
            }                                                                 \
        }                                                                     \
    }                                                                         \
                                                                              \
    /* o[0:mr, 0:2L] = a[0:mr, 0:k] @ b[0:k, 0:2L], L the lanes of V,         \
     * summed in 2 * mr vector registers from +0.0, or from the running sums  \
     * in o where from_o is set. */                                           \
    AVX512F static inline __attribute__((always_inline)) void NAME##_tile(    \
        int mr, int from_o, const T *a, long ars, long acs, const T *b,       \
        long ldb, T *o, long ldo, long k)                                     \
    {                                                                         \
        const long L = sizeof(V) / sizeof(T);                                 \
        V c[MR][2] = {{{0}}}, y0, y1;                                         \
        long p;                                                               \
        int r;                                                                \
        if (from_o)                                                           \
            for (r = 0; r < mr; r++) {                                        \
                memcpy(&c[r][0], o + r * ldo, sizeof(V));                     \
                memcpy(&c[r][1], o + r * ldo + L, sizeof(V));                 \
            }                                                                 \
        for (p = 0; p < k; p++) {                                             \
            memcpy(&y0, b + p * ldb, sizeof(V));                              \
            memcpy(&y1, b + p * ldb + L, sizeof(V));                          \
            for (r = 0; r < mr; r++) {                                        \
                const T x = a[r * ars + p * acs];                             \
                c[r][0] += x * y0;                                            \
                c[r][1] += x * y1;                                            \
            }                                                                 \
        }                                                                     \
        for (r = 0; r < mr; r++) {                                            \
            memcpy(o + r * ldo, &c[r][0], sizeof(V));                         \
            memcpy(o + r * ldo + L, &c[r][1], sizeof(V));                     \
        }                                                                     \
    }                                                                         \
                                                                              \
    /* o[:, 0:2L] = a @ b[:, 0:2L] (or += where from_o is set), by register   \
     * tiles of MR, 4, 2 and 1 rows. */                                       \
    AVX512F static void NAME##_rows(int from_o, const T *a, long ars,         \
                                    long acs, const T *b, long ldb, T *o,     \
                                    long ldo, long n, long k)                 \
    {                                                                         \
        long i;                                                               \
        for (i = 0; i + MR <= n; i += MR)                                     \
            NAME##_tile(MR, from_o, a + i * ars, ars, acs, b, ldb,            \
                        o + i * ldo, ldo, k);                                 \
        if (n - i >= 4) {                                                     \
            NAME##_tile(4, from_o, a + i * ars, ars, acs, b, ldb,             \
                        o + i * ldo, ldo, k);                                 \
            i += 4;                                                           \
        }                                                                     \
        if (n - i >= 2) {                                                     \
            NAME##_tile(2, from_o, a + i * ars, ars, acs, b, ldb,             \
                        o + i * ldo, ldo, k);                                 \
            i += 2;                                                           \
        }                                                                     \
        if (n - i >= 1)                                                       \
            NAME##_tile(1, from_o, a + i * ars, ars, acs, b, ldb,             \
                        o + i * ldo, ldo, k);                                 \
    }                                                                         \
                                                                              \
    /* o[:, 0:m] = a @ b[:, 0:m] for m a multiple of 2L, by blocks of kc      \
     * rows of b, which NAME##_rows reads panel by panel of 2L columns,       \
     * carrying the running sums in o from one block to the next. Where pack  \
     * is not NULL, each block is first copied into it, a buffer of WIDE_BUF  \
     * bytes or less (of one row, where a row is larger), as contiguous       \
     * panels of kc x 2L; else kc = KC and the tile reads b in place, rows    \
     * ldb apart. An empty inner index is one empty block, which writes       \
     * +0.0. */                                                               \
    AVX512F static void NAME##_tiled(const T *a, long ars, long acs,          \
                                     const T *b, long ldb, T *o, long ldo,    \
                                     long n, long k, long m, T *pack)         \
    {                                                                         \
        const long nr = 2 * (sizeof(V) / sizeof(T));                          \
        const long q = WIDE_BUF / (sizeof(T) * m), c = q < k ? q : k;         \
        const long kc = !pack ? KC : c > 0 ? c : 1;                           \
        long p0 = 0, p, j, kb;                                                \
        do {                                                                  \
            kb = k - p0 < kc ? k - p0 : kc;                                   \
            if (pack)                                                         \
                for (p = 0; p < kb; p++)                                      \
                    for (j = 0; j < m; j += nr)                               \
                        memcpy(pack + j * kb + p * nr,                        \
                               b + (p0 + p) * ldb + j, sizeof(T) * nr);       \
            for (j = 0; j < m; j += nr)                                       \
                NAME##_rows(p0 > 0, a + p0 * acs, ars, acs,                   \
                            pack ? pack + j * kb : b + p0 * ldb + j,          \
                            pack ? nr : ldb, o + j, ldo, n, kb);              \
            p0 += kb;                                                         \
        } while (p0 < k);                                                     \
    }                                                                         \
                                                                              \
    /* o = a @ b for b with contiguous rows of ldb: the first mt = m - m % 2L \
     * columns on the register tile, over a packed copy of b in pack          \
     * (PACKED) or over b in place (IN_PLACE), and the other columns on the   \
     * i-p-j loop, which takes them all on the LOOP path. */                  \
    static void NAME##_run(const T *a, long ars, long acs, const T *b,        \
                           long ldb, T *o, long ldo, long n, long k, long m,  \
                           T *pack, int path)                                 \
    {                                                                         \
        const long nr = 2 * (sizeof(V) / sizeof(T));                          \
        const long mt = path == LOOP ? 0 : m - m % nr;                        \
        if (mt > 0)                                                           \
            NAME##_tiled(a, ars, acs, b, ldb, o, ldo, n, k, mt,               \
                         path == PACKED ? pack : NULL);                       \
        if (mt < m)                                                           \
            NAME##_block(a, ars, acs, b + mt, ldb, o + mt, ldo, n, k,         \
                         m - mt);                                             \
    }                                                                         \
                                                                              \
    /* o = a @ b for any b strides; gather holds k x PANEL elements, which a  \
     * b with bcs != 1 is gathered into one panel of columns at a time, in    \
     * blocks of GATHER inner indices so that each read of b is a run of      \
     * GATHER elements where brs == 1. */                                     \
    static void NAME##_product(const T *a, long ars, long acs, const T *b,    \
                               long brs, long bcs, T *o, long ldo, long n,    \
                               long k, long m, T *gather, T *pack, int path)  \
    {                                                                         \
        long j0, jj, p0, p, w, pe;                                            \
        if (n == 0)                                                           \
            return;                                                           \
        if (bcs == 1) {                                                       \
            NAME##_run(a, ars, acs, b, brs, o, ldo, n, k, m, pack, path);     \
            return;                                                           \
        }                                                                     \
        for (j0 = 0; j0 < m; j0 += w) {                                       \
            w = m - j0 < PANEL ? m - j0 : PANEL;                              \
            for (p0 = 0; p0 < k; p0 += GATHER) {                              \
                pe = k - p0 < GATHER ? k : p0 + GATHER;                       \
                for (jj = 0; jj < w; jj++)                                    \
                    for (p = p0; p < pe; p++)                                 \
                        gather[p * w + jj] = b[p * brs + (j0 + jj) * bcs];    \
            }                                                                 \
            NAME##_run(a, ars, acs, gather, w, o + j0, ldo, n, k, w, pack,    \
                       path);                                                 \
        }                                                                     \
    }                                                                         \
                                                                              \
    /* Part i of a split product, on its own gather and pack buffers: of a    \
     * plain product, the columns from the i-th to the (i + 1)-th of parts    \
     * equal shares of the m / 2L panels of 2L columns, the last part         \
     * taking the m % 2L columns left over; of a grouped one, the segments    \
     * first_segment gives it. */                                             \
    static void NAME##_part(const void *job, int i)                           \
    {                                                                         \
        const struct job *j = job;                                            \
        const long nr = 2 * (sizeof(V) / sizeof(T)), panels = j->m / nr;      \
        const T *a = j->a, *b = j->b;                                         \
        T *o = j->o, *gather = NULL, *pack = NULL;                            \
        long s, end, c0, c1;                                                  \
        if (j->buf) {                                                         \
            gather = (T *)j->buf + i * (j->gather + j->pack);                 \
            pack = gather + j->gather;                                        \
        }                                                                     \
        if (j->off == NULL) {                                                 \
            c0 = panels * i / j->parts * nr;                                  \
            c1 = i + 1 == j->parts ? j->m : panels * (i + 1) / j->parts * nr; \
            NAME##_product(a, j->ars, j->acs, b + c0 * j->bcs, j->brs, j->bcs,\
                           o + c0, j->m, j->n, j->k, c1 - c0, gather, pack,   \
                           j->path);                                          \
            return;                                                           \
        }                                                                     \
        for (s = first_segment(j, i), end = first_segment(j, i + 1); s < end; \
             s++)                                                             \
            if (!j->inner)                                                    \
                NAME##_product(a + j->off[s] * j->ars, j->ars, j->acs,        \
                               b + s * j->bks, j->brs, j->bcs,                \
                               o + j->off[s] * j->m, j->m,                    \
                               j->off[s + 1] - j->off[s], j->k, j->m, gather, \
                               pack, j->path);                                \
            else                                                              \
                NAME##_product(a + j->off[s] * j->acs, j->ars, j->acs,        \
                               b + j->off[s] * j->brs, j->brs, j->bcs,        \
                               o + s * j->oks, j->m, j->n,                    \
                               j->off[s + 1] - j->off[s], j->m, gather, pack, \
                               j->path);                                      \
    }                                                                         \
                                                                              \
    /* Returns 0, or -1 when the buffers cannot be allocated, before any      \
     * part runs. On the register tile, a plain product of more than MR rows  \
     * runs over a packed copy of b, and every other product, one-row         \
     * products and grouped segments included, over b in place; elsewhere     \
     * all run on the loop. A product of n * k * m >= 2 * PART_MIN            \
     * multiply-adds splits into up to threads parts of PART_MIN or more      \
     * when the pool is free: by columns, in whole panels of 2L, or by        \
     * segments. */                                                           \
    int NAME(const T *a, long ars, long acs, const T *b, long brs, long bcs,  \
             long bks, T *o, long oks, const int64_t *off, long nseg,         \
             int inner, long n, long k, long m)                               \
    {                                                                         \
        const long nr = 2 * (sizeof(V) / sizeof(T)), line = 64 / sizeof(T);   \
        const long w = bcs != 1 && m > PANEL ? PANEL : m;                     \
        const long fill = k * w < WIDE_BUF / (long)sizeof(T)                  \
                              ? k * w : WIDE_BUF / (long)sizeof(T);           \
        const long shares = n * k * m / PART_MIN;                             \
        long want = off == NULL ? m / nr : nseg;                              \
        struct job j = {a, b, o, NULL, ars, acs, brs, bcs, bks, oks, n, k,    \
                        m, nseg, 0, 0, off, inner, 0, 1};                     \
        int pooled = 0;                                                       \
        j.path = !tiled ? LOOP : off == NULL && n > MR ? PACKED : IN_PLACE;   \
        want = want < threads ? want : threads;                               \
        want = want < shares ? want : shares;                                 \
        if (bcs != 1)                                                         \
            j.gather = ((k > 0 ? k : 1) * w + line - 1) / line * line;        \
        if (j.path == PACKED)                                                 \
            j.pack = ((fill > w ? fill : w) + line - 1) / line * line;        \
        if ((want > 1 || j.gather + j.pack > 0) &&                            \
            pthread_mutex_trylock(&busy) == 0) {                              \
            pooled = 1;                                                       \
            j.parts = want > 1 ? (int)want : 1;                               \
        }                                                                     \
        if (j.gather + j.pack > 0 &&                                          \
            !(j.buf = buffer(sizeof(T) * j.parts * (j.gather + j.pack),       \
                             pooled))) {                                      \
            if (pooled)                                                       \
                pthread_mutex_unlock(&busy);                                  \
            return -1;                                                        \
        }                                                                     \
        if (j.parts > 1) {                                                    \
            if (!started)                                                     \
                start_workers();                                              \
            j.parts = j.parts < threads ? j.parts : threads;                  \
            share(NAME##_part, &j, j.parts);                                  \
        } else                                                                \
            NAME##_part(&j, 0);                                               \
        if (pooled)                                                           \
            pthread_mutex_unlock(&busy);                                      \
        else                                                                  \
            free(j.buf);                                                      \
        return 0;                                                             \
    }

GEMM(gemm_f32, float, v16sf)
GEMM(gemm_f64, double, v8df)

/* SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): out[i - 1] =
 * (mix(seed + (counter + i) * GOLDEN) >> 11) * 2^-53 for i = 1 .. n, the
 * uniform doubles in [0, 1) of draws counter + 1 .. counter + n of the
 * stream of seed, all arithmetic modulo 2^64. The integer steps are exact,
 * and a value below 2^53 converts to double and scales by a power of two
 * exactly, so these are the bits of _kernels_py.uniform_f64. The loop is
 * built once: the same loop under AVX-512F or AVX2 target_clones was no
 * faster (0.63-0.65 ms per 524288 draws as bare ctypes calls, min of 15,
 * against 5.3 ms for the NumPy entry's arithmetic). */
void uniform_f64(uint64_t seed, uint64_t counter, double *out, long n)
{
    const uint64_t golden = 0x9E3779B97F4A7C15ULL;
    uint64_t z = seed + counter * golden, x;
    long i;
    for (i = 0; i < n; i++) {
        z += golden;
        x = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
        x ^= x >> 31;
        out[i] = (double)(x >> 11) * 0x1p-53;
    }
}

/* The two passes of a clipped SGD step over a list of count float tensors,
 * tensor t holding sizes[t] elements at arrays[t] (params[t], grads[t]).
 *
 * sum_squares_f32 returns sq, which starts at 0.0 and takes, per tensor in
 * list order, sq += 0.0 + pairwise(t): the bits of NumPy's
 * sq += float((a.astype(np.float64) ** 2).sum()). pairwise is NumPy's
 * DOUBLE_pairwise_sum over the tensor's squares, each widened to double
 * first, so exact (Higham, SIAM J. Sci. Comput. 14(4), 1993): below 8
 * elements it adds them in order from 0.0; up to PW_BLOCK it seeds eight
 * accumulators with the first eight, adds the next eight to them in turn
 * while eight are left, combines ((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
 * (r6 + r7)) and adds the rest in order; above PW_BLOCK it is the sum of
 * the pairwise sums of the first n2 = n / 2 - (n / 2) % 8 elements and of
 * the others. The eight accumulators are the lanes of one vector, so each
 * lane adds its own terms in NumPy's order.
 *
 * sub_scaled_f32 does p -= scale * g in place, element by element and
 * tensor by tensor in list order, with NumPy's promotion of a scale that
 * is a Python float (wide == 0: p - (float)scale * g, in float) or an
 * np.float64 (wide == 1: (float)((double)p - scale * (double)g)). A
 * tensor's p and g must not overlap; the caller checks that.
 *
 * pairwise_sq and sub_scaled_f32 are cloned like the matmul loop. Per step
 * over the 196 tensors of NVShard at h=256, H=1024 (7,094,272 values),
 * inside train-demo, the norm took 3.0-3.9 ms against 8.1-9.1 for the
 * NumPy loop, and the update 3.4-4.6 against 4.6-6.2 (min and median,
 * BENCH_sgd_step.json), the two together including about 1 ms of Python
 * that takes the arrays' addresses and checks them. */

#define PW_BLOCK 128

typedef float v8sf __attribute__((vector_size(32)));

CLONES static double pairwise_sq(const float *a, long n)
{
    long i;
    if (n < 8) {
        double res = 0.;
        for (i = 0; i < n; i++)
            res += (double)a[i] * (double)a[i];
        return res;
    }
    if (n <= PW_BLOCK) {
        v8sf x;
        v8df y, r;
        double res;
        memcpy(&x, a, sizeof(x));
        y = __builtin_convertvector(x, v8df);
        r = y * y;
        for (i = 8; i < n - n % 8; i += 8) {
            memcpy(&x, a + i, sizeof(x));
            y = __builtin_convertvector(x, v8df);
            r += y * y;
        }
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += (double)a[i] * (double)a[i];
        return res;
    }
    i = n / 2 - (n / 2) % 8;
    return pairwise_sq(a, i) + pairwise_sq(a + i, n - i);
}

double sum_squares_f32(const float *const *arrays, const long *sizes,
                       long count)
{
    double sq = 0.;
    long t;
    for (t = 0; t < count; t++)
        sq += 0. + pairwise_sq(arrays[t], sizes[t]);
    return sq;
}

CLONES void sub_scaled_f32(float *const *params, const float *const *grads,
                           const long *sizes, long count, double scale,
                           int wide)
{
    const float s = (float)scale;
    long t, i;
    for (t = 0; t < count; t++) {
        float *p = params[t];
        const float *g = grads[t];
        if (wide)
            for (i = 0; i < sizes[t]; i++)
                p[i] = (float)((double)p[i] - scale * (double)g[i]);
        else
            for (i = 0; i < sizes[t]; i++)
                p[i] -= s * g[i];
    }
}
