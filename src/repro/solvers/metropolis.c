/*
 * One Metropolis single-spin-flip sweep over a batch of reads: the
 * native tier of repro.solvers.kernels.run_metropolis_sweeps.
 *
 * The caller draws the sweep's variable order and its (n, num_reads)
 * block of log-uniforms with numpy, exactly as the numpy tiers do, so
 * every tier consumes the same random stream.  The arithmetic keeps the
 * numpy tiers' operation order -- x = (2 beta s) f, f = f - (2 old) J --
 * and the library is built with -ffp-contract=off, so no multiply-add is
 * fused and every tier produces the same bits.
 *
 * Reads do not interact within a sweep, so any visiting order that keeps
 * each read's proposals in permutation order gives the same result.  The
 * loop takes READ_BLOCK reads at a time through the whole permutation:
 * their thresholds for one proposal share a cache line of log_u, and
 * their spin and field rows stay in cache.
 *
 * Plain C99; the loader compiles it with the system cc on first use.
 */
#include <stdint.h>

#define READ_BLOCK 8

int64_t repro_metropolis_sweep(
    int64_t num_reads,
    int64_t n,
    double *restrict spins,        /* (num_reads, n), C order, in place */
    double *restrict fields,       /* (num_reads, n), C order, in place */
    const int64_t *restrict order, /* this sweep's permutation of 0..n-1 */
    const double *restrict log_u,  /* (n, num_reads), C order */
    double two_beta,
    const int64_t *restrict indptr, /* CSR adjacency of the couplings */
    const int64_t *restrict indices,
    const double *restrict data)
{
    int64_t accepted = 0;
    for (int64_t first = 0; first < num_reads; first += READ_BLOCK) {
        const int64_t last =
            first + READ_BLOCK < num_reads ? first + READ_BLOCK : num_reads;
        for (int64_t k = 0; k < n; ++k) {
            const int64_t i = order[k];
            const double *restrict thresholds = log_u + k * num_reads;
            for (int64_t r = first; r < last; ++r) {
                double *restrict s = spins + r * n;
                double *restrict f = fields + r * n;
                const double x = (two_beta * s[i]) * f[i];
                /* log(u) < min(x, 0), written so that a NaN x rejects,
                 * as numpy's minimum (which propagates NaN) does. */
                if (thresholds[r] < x && thresholds[r] < 0.0) {
                    const double step = 2.0 * s[i];
                    s[i] = -s[i];
                    for (int64_t p = indptr[i]; p < indptr[i + 1]; ++p) {
                        f[indices[p]] = f[indices[p]] - step * data[p];
                    }
                    ++accepted;
                }
            }
        }
    }
    return accepted;
}
