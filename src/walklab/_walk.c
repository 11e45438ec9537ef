/* The compiled walk stepper: `walks._walk`, step for step, over flat arrays.

   Trial i of a run with seed s reads stream (s, 1 + i): step t (from 1)
   reads word t - 1 of that stream, which is word (t - 1) mod 4 of the
   Philox4x64-10 block at counter (t - 1) div 4 + 1 under key (s, 1 + i),
   as numpy's Philox draws it from a fresh state. A step from v takes the
   index i = rows[row[v] R + (w >> shift)]; if i is L_v, the length of v's
   table, the bucket was impure and i = bisect_left(cum_v, (w >> 11) 2^-53).
   The walk moves to nbrs[off[v] + i], then counts that vertex's quota down
   as `_walk` does. Built by `walks` with the interpreter's C compiler. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t u64;

/* one Philox4x64-10 block: Random123's rounds, as numpy computes them */
static void philox(u64 counter, u64 k0, u64 k1, u64 out[4])
{
    u64 c0 = counter, c1 = 0, c2 = 0, c3 = 0;
    for (int round = 0; round < 10; round++) {
        if (round) {
            k0 += 0x9E3779B97F4A7C15ULL;
            k1 += 0xBB67AE8584CAA73BULL;
        }
        __uint128_t p0 = (__uint128_t)0xD2E7470EE14C6C93ULL * c0;
        __uint128_t p1 = (__uint128_t)0xCA5A826395121157ULL * c2;
        c0 = (u64)(p1 >> 64) ^ c1 ^ k0;
        c1 = (u64)p1;
        c2 = (u64)(p0 >> 64) ^ c3 ^ k1;
        c3 = (u64)p0;
    }
    out[0] = c0;
    out[1] = c1;
    out[2] = c2;
    out[3] = c3;
}

/* words 0..count-1 of stream (seed, index); for the tests */
void walklab_words(u64 seed, u64 index, int64_t count, u64 *out)
{
    u64 block[4];
    for (int64_t t = 0; t < count; t++) {
        if (t % 4 == 0)
            philox((u64)(t / 4) + 1, seed, index, block);
        out[t] = block[t % 4];
    }
}

/* first index i with cum[i] >= u, as Python's bisect_left */
static int64_t bisect_left(const double *cum, int64_t length, double u)
{
    int64_t lo = 0, hi = length;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (cum[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* steps a call may take before it returns at the end of a trial, about a
   second: the caller calls again for the rest, and the interpreter can act
   on a signal, such as Ctrl-C, in between */
#define PAUSE ((int64_t)1 << 26)

/* Stopping steps of the count trials on streams (seed, first), (seed,
   first + 1), ... into out, -1 where censored at budget. left holds the
   visits each vertex owes at time zero, and remaining how many owe any.
   Returns the number of trials walked, from 1 up to count (fewer once a
   call passes PAUSE steps), or -1 when the quota copy cannot be
   allocated. */
int64_t walklab_trials(
    int64_t n, const int64_t *off, const int64_t *nbrs, const double *cum,
    const int64_t *row, const int64_t *rows, int64_t buckets, int64_t shift,
    int64_t start, int64_t budget, const int64_t *left, int64_t remaining,
    u64 seed, u64 first, int64_t count, int64_t *out)
{
    int64_t *owed = malloc((size_t)n * sizeof *owed), walked = 0, i = 0;
    if (!owed)
        return -1;
    while (i < count && walked < PAUSE) {
        int64_t result = -1, rest = remaining, pos = start, t = 0;
        u64 block[4];
        memcpy(owed, left, (size_t)n * sizeof *owed);
        if (rest == 0)
            result = 0;
        while (result < 0 && t < budget) {
            philox((u64)(t / 4) + 1, seed, first + (u64)i, block);
            for (int j = 0; j < 4 && t < budget; j++) {
                u64 w = block[j];
                int64_t base = off[pos], length = off[pos + 1] - base;
                int64_t k = rows[row[pos] * buckets + (int64_t)(w >> shift)];
                t++;
                if (k == length)
                    k = bisect_left(cum + base, length, (double)(w >> 11) * 0x1p-53);
                pos = nbrs[base + k];
                if (owed[pos] && --owed[pos] == 0 && --rest == 0) {
                    result = t;
                    break;
                }
            }
        }
        out[i++] = result;
        walked += t;
    }
    free(owed);
    return i;
}
