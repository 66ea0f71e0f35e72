/*
 * One Metropolis single-spin-flip sweep over a batch of reads: the
 * native tier of repro.solvers.kernels.run_metropolis_sweeps.
 *
 * The caller draws the sweep's variable order and its (n, num_reads)
 * block of log-uniforms with numpy, exactly as the numpy tiers do, so
 * every tier consumes the same random stream.  The arithmetic keeps the
 * numpy tiers' operation order -- x = (2 beta s) f, f = f - (2 old) J --
 * and the library is built with -ffp-contract=off, so no multiply-add is
 * fused, in the vector loop either, and every tier produces the same
 * bits.
 *
 * The spins and fields are reads-minor, (n, num_reads): each variable's
 * reads sit side by side, as its thresholds do in log_u, so a proposal
 * streams through contiguous rows.  Reads do not interact within a
 * sweep, so any visiting order that keeps each read's proposals in
 * permutation order gives the same result.  On a CPU with AVX-512 the
 * vector loop takes each proposal across the first
 * num_reads - num_reads % READ_BLOCK reads, READ_BLOCK reads per vector,
 * and the scalar loop then runs the tail; on other CPUs and builds the
 * scalar loop runs every read.
 *
 * The vector loop selects its updates bitwise instead of multiplying by
 * a 0/1 mask: a rejected lane keeps its exact bits, where a multiply
 * would turn a -0.0 field into +0.0 and an infinite one into NaN.  It
 * is compiled for AVX-512 only, under a target attribute, and chosen at
 * run time, so the build never assumes the build host's CPU.  SSE2 and
 * AVX2 vector loops ran no faster than scalar code, so none is built.
 *
 * GNU C vector extensions, scalar fallback; the loader compiles it with
 * the system cc on first use.
 */
#include <stdint.h>

#define READ_BLOCK 8

#if defined(__GNUC__) && defined(__x86_64__)
#define HAVE_AVX512_LOOP 1
#endif

/* Reads [first, num_reads) through the whole permutation, one at a time. */
static int64_t sweep_scalar(
    int64_t first,
    int64_t num_reads,
    int64_t n,
    double *restrict spins,
    double *restrict fields,
    const int64_t *restrict order,
    const double *restrict log_u,
    double two_beta,
    const int64_t *restrict indptr,
    const int64_t *restrict indices,
    const double *restrict data)
{
    int64_t accepted = 0;
    for (int64_t k = 0; k < n; ++k) {
        const int64_t i = order[k];
        double *s = spins + i * num_reads;
        const double *f = fields + i * num_reads;
        const double *thresholds = log_u + k * num_reads;
        for (int64_t r = first; r < num_reads; ++r) {
            const double x = (two_beta * s[r]) * f[r];
            /* log(u) < min(x, 0), written so that a NaN x rejects,
             * as numpy's minimum (which propagates NaN) does. */
            if (thresholds[r] < x && thresholds[r] < 0.0) {
                const double step = 2.0 * s[r];
                s[r] = -s[r];
                for (int64_t p = indptr[i]; p < indptr[i + 1]; ++p) {
                    double *fj = fields + indices[p] * num_reads + r;
                    *fj = *fj - step * data[p];
                }
                ++accepted;
            }
        }
    }
    return accepted;
}

#ifdef HAVE_AVX512_LOOP
typedef double v8d __attribute__((vector_size(8 * sizeof(double))));
typedef int64_t v8i __attribute__((vector_size(8 * sizeof(int64_t))));

/* Reads [0, last) through the whole permutation, READ_BLOCK per vector;
 * last is a multiple of READ_BLOCK. */
__attribute__((target("avx512f")))
static int64_t sweep_avx512(
    int64_t last,
    int64_t num_reads,
    int64_t n,
    double *restrict spins,
    double *restrict fields,
    const int64_t *restrict order,
    const double *restrict log_u,
    double two_beta,
    const int64_t *restrict indptr,
    const int64_t *restrict indices,
    const double *restrict data)
{
    const v8d beta2 = {two_beta, two_beta, two_beta, two_beta,
                       two_beta, two_beta, two_beta, two_beta};
    const v8d zero = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    int64_t accepted = 0;
    for (int64_t k = 0; k < n; ++k) {
        const int64_t i = order[k];
        for (int64_t first = 0; first < last; first += READ_BLOCK) {
            double *s_at = spins + i * num_reads + first;
            v8d s, f, lu;
            __builtin_memcpy(&s, s_at, sizeof s);
            __builtin_memcpy(&f, fields + i * num_reads + first, sizeof f);
            __builtin_memcpy(&lu, log_u + k * num_reads + first, sizeof lu);
            const v8d x = (beta2 * s) * f;
            const v8i accept = (v8i)(lu < x) & (v8i)(lu < zero);
            int64_t hits = 0;
            for (int lane = 0; lane < READ_BLOCK; ++lane) {
                hits -= accept[lane];
            }
            if (hits == 0) {
                continue;
            }
            accepted += hits;
            const v8d step = 2.0 * s;
            const v8d flipped = -s;
            s = (v8d)(((v8i)flipped & accept) | ((v8i)s & ~accept));
            __builtin_memcpy(s_at, &s, sizeof s);
            for (int64_t p = indptr[i]; p < indptr[i + 1]; ++p) {
                double *fj_at = fields + indices[p] * num_reads + first;
                v8d fj;
                __builtin_memcpy(&fj, fj_at, sizeof fj);
                const v8d updated = fj - step * data[p];
                fj = (v8d)(((v8i)updated & accept) | ((v8i)fj & ~accept));
                __builtin_memcpy(fj_at, &fj, sizeof fj);
            }
        }
    }
    return accepted;
}
#endif

int64_t repro_metropolis_sweep(
    int64_t num_reads,
    int64_t n,
    double *restrict spins,        /* (n, num_reads), C order, in place */
    double *restrict fields,       /* (n, num_reads), C order, in place */
    const int64_t *restrict order, /* this sweep's permutation of 0..n-1 */
    const double *restrict log_u,  /* (n, num_reads), C order */
    double two_beta,
    const int64_t *restrict indptr, /* CSR adjacency of the couplings */
    const int64_t *restrict indices,
    const double *restrict data)
{
    int64_t accepted = 0;
    int64_t first = 0;
#ifdef HAVE_AVX512_LOOP
    if (__builtin_cpu_supports("avx512f")) {
        first = num_reads - num_reads % READ_BLOCK;
        accepted += sweep_avx512(first, num_reads, n, spins, fields, order,
                                 log_u, two_beta, indptr, indices, data);
    }
#endif
    accepted += sweep_scalar(first, num_reads, n, spins, fields, order, log_u,
                             two_beta, indptr, indices, data);
    return accepted;
}
