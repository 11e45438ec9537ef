/* walklab's compiled kernel: the walk stepper, the pairing check, the
   conductance enumeration and the cover recursion's assembly. walklab
   needs it for these four jobs and has no other implementation of them;
   the tests check each against an independent oracle.

   The walk stepper walks trials over flat arrays. Trial i of a run with
   seed s reads stream (s, 1 + i): step t (from 1) reads word t - 1 of
   that stream, which is word (t - 1) mod 4 of the Philox4x64-10 block at
   counter (t - 1) div 4 + 1 under key (s, 1 + i), as numpy's Philox draws
   it from a fresh state. A step from v takes the index
   i = rows[row[v] R + (w >> shift)]; if i is L_v, the length of v's
   table, the bucket was impure and i = bisect_left(cum_v, (w >> 11) 2^-53).
   The walk moves to nbrs[off[v] + i], then counts that vertex's quota
   down, and stops once no vertex owes a visit.

   The pairing check shuffles a configuration-model stub array as numpy's
   Generator.shuffle does on stream (s, 1 + a) for attempt a, and tells
   whether the pairs it makes form a simple graph: no loop and no repeated
   pair.

   The conductance enumeration scores every vertex subset as
   `conductance_exact` describes, each table entry built by the additions
   of whole numpy doubling tables in their order, so every ratio is
   numpy's to the bit.

   The cover recursion's assembly enumerates the connected vertex sets
   and, one size layer at a time, builds the systems of
   `spectral._cover_remaining`, every entry by numpy's operations in
   numpy's order, then stores their solutions; numpy solves them in
   between. Masks are int64, so n <= 62. Built and loaded by `rng` with
   the interpreter's C compiler. */

#include <math.h>
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

/* steps (draws, in the pairing check) a call may take before it returns
   at the end of a trial (a row), about a second: the caller calls again
   for the rest, and the interpreter can act on a signal, such as Ctrl-C,
   in between */
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

/* numpy's Philox as a stream of 64-bit words and of 32-bit halves, from a
   fresh state: counter 0, no buffered words and no cached half */
typedef struct {
    u64 seed, index, counter, block[4];
    int pos, has_half;
    uint32_t half;
} stream;

static void stream_start(stream *s, u64 seed, u64 index)
{
    s->seed = seed;
    s->index = index;
    s->counter = 0;
    s->pos = 4;
    s->has_half = 0;
}

static u64 next64(stream *s)
{
    if (s->pos == 4) {
        philox(++s->counter, s->seed, s->index, s->block);
        s->pos = 0;
    }
    return s->block[s->pos++];
}

/* a word's low half, then its high half, as numpy's next_uint32 */
static uint32_t next32(stream *s)
{
    if (s->has_half) {
        s->has_half = 0;
        return s->half;
    }
    u64 w = next64(s);
    s->has_half = 1;
    s->half = (uint32_t)(w >> 32);
    return (uint32_t)w;
}

/* numpy's random_interval: values under the least all-ones mask >= max
   until one is at most max, 32-bit while max fits; counts them in drawn */
static u64 interval(stream *s, u64 max, int64_t *drawn)
{
    u64 mask = max, value;
    for (int bit = 1; bit < 64; bit *= 2)
        mask |= mask >> bit;
    do {
        value = (max <= 0xFFFFFFFFULL ? next32(s) : next64(s)) & mask;
        ++*drawn;
    } while (value > max);
    return value;
}

/* Fisher-Yates step i of Generator.shuffle: swap x[i] with x[j], j drawn
   from [0, i] */
static void shuffle_step(stream *s, int64_t *x, int64_t i, int64_t *drawn)
{
    int64_t j = (int64_t)interval(s, (u64)i, drawn), held = x[i];
    x[i] = x[j];
    x[j] = held;
}

/* x shuffled in place as Generator.shuffle shuffles it on a fresh stream
   (seed, index); for the tests */
void walklab_shuffle(int64_t *x, int64_t length, u64 seed, u64 index)
{
    stream s;
    int64_t drawn = 0;
    stream_start(&s, seed, index);
    for (int64_t i = length - 1; i > 0; i--)
        shuffle_step(&s, x, i, &drawn);
}

/* Simplicity flags of count attempts: attempt r shuffles stubs (length
   entries, the vertices 0..n-1) on stream (seed, first + r), and its pairs
   are entries (2k, 2k + 1). flags[r] is 1 when no pair is a loop and no
   two pairs have the same key min n + max. The shuffle runs from index
   length - 1 down, so pair k is final once it reaches index 2k (index 1
   for pair 0), and an attempt stops at its first loop or repeated key;
   the keys are kept in an open-addressing table of at least length slots,
   whose entries count as empty unless stamped with the attempt's number.
   Returns the number of attempts checked: all count, or fewer once a call
   passes PAUSE draws, or up to and including the first simple one when
   stop is set; -1 when the tables cannot be allocated. */
int64_t walklab_simple(
    const int64_t *stubs, int64_t length, int64_t n, u64 seed, u64 first,
    int64_t count, int64_t stop, uint8_t *flags)
{
    int bits = 1;
    while (((int64_t)1 << bits) < length)
        bits++;
    size_t slots = (size_t)1 << bits;
    int64_t *x = malloc((size_t)length * sizeof *x);
    int64_t *keys = malloc(slots * sizeof *keys);
    int64_t *stamps = calloc(slots, sizeof *stamps);
    int64_t drawn = 0, r = 0;
    if (!x || !keys || !stamps) {
        free(x);
        free(keys);
        free(stamps);
        return -1;
    }
    while (r < count && drawn < PAUSE) {
        stream s;
        int simple = 1;
        stream_start(&s, seed, first + (u64)r);
        memcpy(x, stubs, (size_t)length * sizeof *x);
        for (int64_t i = length - 1; i > 0; i--) {
            shuffle_step(&s, x, i, &drawn);
            if (i % 2 && i > 1)
                continue;
            int64_t a = x[i & ~(int64_t)1], b = x[(i & ~(int64_t)1) + 1];
            if (a == b) {
                simple = 0;
                break;
            }
            int64_t key = a < b ? a * n + b : b * n + a;
            size_t h = (size_t)(((u64)key * 0x9E3779B97F4A7C15ULL) >> (64 - bits));
            while (stamps[h] == r + 1 && keys[h] != key)
                h = (h + 1) & (slots - 1);
            if (stamps[h] == r + 1) {
                simple = 0;
                break;
            }
            stamps[h] = r + 1;
            keys[h] = key;
        }
        flags[r++] = (uint8_t)simple;
        if (simple && stop)
            break;
    }
    free(x);
    free(keys);
    free(stamps);
    return r;
}

/* The best subset so far: its ratio, mask, stationary mass and cut, and
   the bound past which a cut cannot beat it (see `consider`). */
typedef struct {
    double ratio, bound, mass, cut;
    int64_t mask;
} best_subset;

/* Scores subset mask of stationary mass p and internal flow inner as
   `conductance_exact`'s score does: the cut is np.maximum(p - inner, 0.0)
   (a NaN kept), masses <= 0 or > limit are skipped, and a tie goes to the
   smaller mask.

   The division is skipped when cut > fl(bound p), where bound is
   fl(best (1 + 2^-50)) for a best ratio of 0 or a normal double, and
   infinity otherwise; then fl(cut / p) > best, so the subset would lose.
   Proof: cut is a double above the double fl(bound p), so it is at least
   the next double, which is above the midpoint between the two; bound p
   rounds to fl(bound p), so it is at most that midpoint. So cut > bound p
   and cut / p > bound, and as rounding is monotone and bound is a double,
   fl(cut / p) >= bound. For a normal best, best 2^-50 is at least 4 ulps
   of best, so best (1 + 2^-50) passes the next double above best, and so
   does its rounding: bound > best. For best = 0, cut > 0 and
   p <= limit < 1, so cut / p > cut >= 2^-1074 and fl(cut / p) > 0. A
   subnormal best has ulps too coarse for this, and an infinite bound
   never skips. */
static inline void consider(best_subset *best, double limit, int64_t mask, double p, double inner)
{
    double cut = p - inner;
    if (cut < 0)
        cut = 0.0;
    if (cut > best->bound * p || p <= 0 || p > limit)
        return;
    double ratio = cut / p;
    if (ratio < best->ratio || (ratio == best->ratio && mask < best->mask)) {
        best->ratio = ratio;
        best->mask = mask;
        best->mass = p;
        best->cut = cut;
        best->bound = ratio == 0 || isnormal(ratio) ? ratio * (1 + 0x1p-50) : INFINITY;
    }
}

typedef struct {
    int64_t n, size;
    const double *pi, *q, *a;
    double limit;
    best_subset best;
} subsets;

/* Scores the children of the high-bit pattern base, depth first: child b
   (first <= b < n) adds bit b to base, so its pisum is pis + pi[b], its
   internal flow (inner + cross_b) + q[b, b], and its cross flow to each
   higher bit b2 cross_b2 + a[b, b2]. pis, inner and the cross rows of
   bits first..n-1 hold size entries each, over the low-bit patterns; each
   child's tables are written to spare, its descendants' past them. */
static void extend(subsets *s, int64_t base, int64_t first, const double *pis,
                   const double *inner, const double *cross, double *spare)
{
    int64_t n = s->n, size = s->size;
    for (int64_t b = first; b < n; b++) {
        const double *own = cross + (b - first) * size, *a = s->a + b * n;
        double pib = s->pi[b], qbb = s->q[b * n + b];
        double *child_pis = spare, *child_inner = spare + size, *child_cross = spare + 2 * size;
        int64_t child = base | (int64_t)1 << b, rows = n - 1 - b;
        best_subset best = s->best;
        for (int64_t r = 0; r < rows; r++) {
            const double *from = own + (r + 1) * size;
            double *to = child_cross + r * size, add = a[b + 1 + r];
            for (int64_t i = 0; i < size; i++)
                to[i] = from[i] + add;
        }
        if (rows) {
            for (int64_t i = 0; i < size; i++) {
                double p = pis[i] + pib, flow = (inner[i] + own[i]) + qbb;
                child_pis[i] = p;
                child_inner[i] = flow;
                consider(&best, s->limit, child | i, p, flow);
            }
        } else {  /* the top bit: a leaf, whose tables no child reads */
            for (int64_t i = 0; i < size; i++)
                consider(&best, s->limit, child | i, pis[i] + pib, (inner[i] + own[i]) + qbb);
        }
        s->best = best;
        if (rows)
            extend(s, child, b + 1, child_pis, child_inner, child_cross, child_cross + rows * size);
    }
}

/* The exact conductance of the chain on n vertices with stationary law pi,
   edge flows q and a = q + q^T (row-major n x n): the subset of least
   cut / pisum among those of mass in (0, limit], ties to the smallest
   mask. Subsets are scored 2^low at a time, as `conductance_exact` does:
   first the low-bit patterns, from tables built by doubling over bits
   0..low-1, then each high-bit pattern depth first (see extend). Writes
   the ratio, mass and cut to out and returns the mask: 0, with an
   infinite ratio, when no subset qualifies. Returns -1 when the tables
   cannot be allocated. */
int64_t walklab_conductance(int64_t n, int64_t low, const double *pi, const double *q,
                            const double *a, double limit, double *out)
{
    int64_t size = (int64_t)1 << low, rows = 2 + n;
    for (int64_t b = low; b < n - 1; b++)  /* the top bit's child is a leaf, unstored */
        rows += 2 + n - 1 - b;
    double *tables = calloc((size_t)(rows * size), sizeof *tables);
    if (!tables)
        return -1;
    double *pisum = tables, *internal = tables + size, *cross = tables + 2 * size;
    for (int64_t x = 0; x < low; x++) {
        int64_t half = (int64_t)1 << x;
        for (int64_t i = 0; i < half; i++) {
            internal[half + i] = (internal[i] + cross[x * size + i]) + q[x * n + x];
            pisum[half + i] = pisum[i] + pi[x];
        }
        for (int64_t b = 0; b < n; b++)
            for (int64_t i = 0; i < half; i++)
                cross[b * size + half + i] = cross[b * size + i] + a[x * n + b];
    }
    subsets s = {n, size, pi, q, a, limit, {INFINITY, INFINITY, 0.0, 0.0, 0}};
    for (int64_t i = 0; i < size; i++)
        consider(&s.best, limit, i, pisum[i], internal[i]);
    extend(&s, 0, low, pisum, internal, cross + low * size, cross + n * size);
    free(tables);
    out[0] = s.best.ratio;
    out[1] = s.best.mass;
    out[2] = s.best.cut;
    return s.best.mask;
}

/* The nonempty subsets of 0..n-1 connected in the support whose neighbour
   masks are adj, in ascending mask order, with their sizes: S is
   connected when the flood from its lowest vertex through its own
   vertices reaches all of S.
   sets and size hold 2^n - 1 entries; returns how many were written. */
int64_t walklab_connected(int64_t n, const int64_t *adj, int64_t *sets, int8_t *size)
{
    int64_t count = 0;
    for (int64_t s = 1; s < (int64_t)1 << n; s++) {
        int64_t reach = s & -s, frontier = reach;
        int8_t k = 0;
        while (frontier) {
            int64_t v = __builtin_ctzll((u64)frontier), grown = adj[v] & s & ~reach;
            frontier = (frontier & (frontier - 1)) | grown;
            reach |= grown;
            k++;
        }
        if (reach == s) {
            sets[count] = s;
            size[count++] = k;
        }
    }
    return count;
}

/* One size layer of the cover recursion: for each of the count sets of k
   vertices in masks, the system a x = b of `spectral._cover_remaining`,
   a = I - P[S, S] (k x k) and b = 1 + sum_w P[S, w] remaining[row[S | w], w]
   (k), each entry by numpy's operations in numpy's order: one subtraction
   from the identity's 1.0 or 0.0, and the products added onto 1.0 over
   ascending w, every w of the n, each product rounded on its own. p is
   row-major n x n, remaining holds n doubles a row, and row maps each of
   the 2^n masks to its row of remaining. */
void walklab_cover_layer(int64_t n, int64_t k, int64_t count, const double *p,
                         const int64_t *masks, const int64_t *row,
                         const double *remaining, double *a, double *b)
{
    int64_t idx[64];
    double after[64];
    for (int64_t c = 0; c < count; c++, a += k * k, b += k) {
        int64_t s = masks[c];
        for (int64_t w = 0, i = 0; w < n; w++) {
            after[w] = remaining[row[s | (int64_t)1 << w] * n + w];
            if (s >> w & 1)
                idx[i++] = w;
        }
        for (int64_t i = 0; i < k; i++) {
            const double *from = p + idx[i] * n;
            double total = 1.0;
            for (int64_t j = 0; j < k; j++)
                a[i * k + j] = (i == j ? 1.0 : 0.0) - from[idx[j]];
            for (int64_t w = 0; w < n; w++)
                total = total + from[w] * after[w];
            b[i] = total;
        }
    }
}

/* The solutions x (count rows of k) of one layer into remaining: vertex
   i of set masks[c], the i-th lowest, takes x[c k + i] in row row[masks[c]]. */
void walklab_cover_store(int64_t n, int64_t k, int64_t count, const int64_t *masks,
                         const int64_t *row, const double *x, double *remaining)
{
    for (int64_t c = 0; c < count; c++) {
        double *to = remaining + row[masks[c]] * n;
        for (int64_t s = masks[c], i = 0; s; s &= s - 1)
            to[__builtin_ctzll((u64)s)] = x[c * k + i++];
    }
}
