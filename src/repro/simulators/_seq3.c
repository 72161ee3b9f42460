/* Native kernel for the stateful simulator loops (paper Section 7).
 *
 * Four entry points, each the exact counterpart of a NumPy/Python path
 * in repro.simulators (which stays as the fallback):
 *
 *   seq3_fetch_walk  SEQ.3 fetch walk over one expanded chunk
 *                    (FetchStream.feed): two line numbers per fetch
 *   seq3_tc_walk     trace-cache walk over one chunk (TraceCacheStream.feed)
 *   seq3_victim_feed direct-mapped + LRU victim buffer (_VictimCounter)
 *   seq3_dm_feed     direct-mapped miss count (_DirectMappedCounter)
 *
 * The fetch length from a position is computed on demand, only at the
 * positions a walk visits, instead of for every instruction. The walks
 * are resumable: they stop when the output buffer is full and report the
 * position reached, so the caller can grow the buffer and continue.
 *
 * Arrays are C-contiguous; int64 unless noted, flags are bytes (0/1).
 * The loader (repro.simulators.native) checks dtypes before calling.
 * Divisions and set indices use floor semantics to match NumPy/Python.
 */

#include <stdint.h>
#include <string.h>

#define SEQ3_ABI 2

int64_t seq3_abi(void) { return SEQ3_ABI; }

static inline int64_t floor_div(int64_t a, int64_t b)
{
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        q--;
    return q;
}

static inline int64_t floor_mod(int64_t a, int64_t b)
{
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0)))
        r += b;
    return r;
}

static inline int is_pow2(int64_t x) { return x > 0 && (x & (x - 1)) == 0; }

static inline int log2_of(int64_t x)
{
    int s = 0;
    while ((INT64_C(1) << s) < x)
        s++;
    return s;
}

/* Line number of a byte address. */
static inline int64_t line_of(int64_t a, int64_t line_bytes, int shift)
{
    return shift >= 0 ? a >> shift : floor_div(a, line_bytes);
}

/* SEQ.3 fetch unit geometry. */
typedef struct {
    int64_t line_bytes;   /* i-cache line size in bytes */
    int64_t line_instrs;  /* instructions per line */
    int64_t instr_shift;  /* log2 of the instruction size in bytes */
    int64_t width;        /* fetch width in instructions */
    int64_t blimit;       /* branches per fetch */
} seq3_geom;

/* SEQ.3 fetch length from position p (p < n): up to and including the
 * first taken branch or the blimit-th branch, within the two lines from
 * the fetch address, at most width instructions, at least one. */
static inline int64_t seq3_len(const int64_t *addr, const uint8_t *br,
                               const uint8_t *tk, int64_t n, int64_t p,
                               const seq3_geom *g)
{
    int64_t cap = 2 * g->line_instrs - floor_mod(addr[p] >> g->instr_shift, g->line_instrs);
    if (cap > g->width)
        cap = g->width;
    if (cap > n - p)
        cap = n - p;
    if (cap < 1)
        cap = 1;
    int64_t len = 0, branches = 0;
    while (len < cap) {
        int64_t i = p + len++;
        if (tk[i])
            break;
        if (br[i] && ++branches >= g->blimit)
            break;
    }
    return len;
}

/* SEQ.3 fetch walk from *pos: writes two line numbers per fetch into
 * lines (room for cap_fetches fetches); returns the fetches written and
 * leaves the next fetch position in *pos (n when the chunk is done). */
int64_t seq3_fetch_walk(const int64_t *addr, const uint8_t *br, const uint8_t *tk,
                        int64_t n, int64_t *pos, int64_t line_bytes, int64_t line_instrs,
                        int64_t instr_shift, int64_t width, int64_t blimit,
                        int64_t *lines, int64_t cap_fetches)
{
    const seq3_geom g = {line_bytes, line_instrs, instr_shift, width, blimit};
    const int shift = is_pow2(line_bytes) ? log2_of(line_bytes) : -1;
    int64_t p = *pos, k = 0;
    while (p < n && k < cap_fetches) {
        int64_t line = line_of(addr[p], line_bytes, shift);
        lines[2 * k] = line;
        lines[2 * k + 1] = line + 1;
        k++;
        p += seq3_len(addr, br, tk, n, p, &g);
    }
    *pos = p;
    return k;
}

/* Trace-cache walk from *pos. entries is n_entries rows of (start
 * address, outcome mask, branch count, length); length 0 marks an empty
 * entry. Each miss writes two line numbers (room for cap_misses misses);
 * counts[0] += hits, counts[1] += misses. Returns the misses written and
 * leaves the next fetch position in *pos. */
int64_t seq3_tc_walk(const int64_t *addr, const uint8_t *br, const uint8_t *tk,
                     int64_t n, int64_t *pos, int64_t *entries, int64_t n_entries,
                     int64_t tc_width, int64_t tc_blimit, int64_t line_bytes,
                     int64_t line_instrs, int64_t instr_shift, int64_t width,
                     int64_t blimit, int64_t *lines, int64_t cap_misses, int64_t *counts)
{
    const seq3_geom g = {line_bytes, line_instrs, instr_shift, width, blimit};
    int64_t p = *pos, hits = 0, m = 0;
    while (p < n && m < cap_misses) {
        const int64_t a = addr[p];
        int64_t *e = entries + 4 * floor_mod(a >> 4, n_entries);
        if (e[3] != 0 && e[0] == a && p + e[3] <= n) {
            /* hit iff the next k branches resolve as recorded */
            const int64_t k = e[2];
            int64_t found = 0, bits = 0;
            for (int64_t i = p; found < k && i < n; i++)
                if (br[i])
                    bits |= (int64_t)(tk[i] != 0) << found++;
            if (found == k && bits == e[1]) {
                hits++;
                p += e[3];
                continue;
            }
        }
        /* miss: SEQ.3 fetch from the i-cache */
        const int64_t line = floor_div(a, line_bytes);
        lines[2 * m] = line;
        lines[2 * m + 1] = line + 1;
        m++;
        /* fill: up to tc_width instructions or tc_blimit branches,
         * crossing taken branches */
        int64_t limit = n - p < tc_width ? n - p : tc_width;
        int64_t len = 0, k = 0, bits = 0;
        while (len < limit) {
            int64_t i = p + len++;
            if (br[i]) {
                bits |= (int64_t)(tk[i] != 0) << k;
                if (++k >= tc_blimit)
                    break;
            }
        }
        e[0] = a;
        e[1] = bits;
        e[2] = k;
        e[3] = len;
        p += seq3_len(addr, br, tk, n, p, &g);
    }
    counts[0] += hits;
    counts[1] += m;
    *pos = p;
    return m;
}

static inline int64_t find(const int64_t *buf, int64_t len, int64_t line)
{
    for (int64_t j = 0; j < len; j++)
        if (buf[j] == line)
            return j;
    return -1;
}

static inline void drop(int64_t *buf, int64_t *len, int64_t j)
{
    memmove(buf + j, buf + j + 1, (size_t)(*len - j - 1) * sizeof(int64_t));
    (*len)--;
}

/* Direct-mapped cache with a fully associative LRU victim buffer. vbuf
 * holds *vlen lines, oldest first, with room for capacity + 1. A primary
 * miss that hits the buffer swaps the two lines and counts as a hit.
 * Returns the misses. */
int64_t seq3_victim_feed(const int64_t *lines, int64_t n, int64_t *primary,
                         int64_t n_sets, int64_t *vbuf, int64_t *vlen, int64_t capacity)
{
    const int64_t mask = is_pow2(n_sets) ? n_sets - 1 : -1;
    int64_t len = *vlen, misses = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t line = lines[i];
        const int64_t s = mask >= 0 ? line & mask : floor_mod(line, n_sets);
        const int64_t resident = primary[s];
        if (resident == line)
            continue;
        int64_t j = find(vbuf, len, line);
        if (j >= 0) {
            drop(vbuf, &len, j);
            if (resident >= 0 && find(vbuf, len, resident) < 0)
                vbuf[len++] = resident;
        } else {
            misses++;
            if (resident >= 0) {
                j = find(vbuf, len, resident);
                if (j >= 0)
                    drop(vbuf, &len, j);
                vbuf[len++] = resident;
            }
        }
        while (len > capacity)
            drop(vbuf, &len, 0);
        primary[s] = line;
    }
    *vlen = len;
    return misses;
}

/* Direct-mapped cache (tags -1 = cold). Returns the misses. */
int64_t seq3_dm_feed(const int64_t *lines, int64_t n, int64_t *tags, int64_t n_sets)
{
    const int64_t mask = is_pow2(n_sets) ? n_sets - 1 : -1;
    int64_t misses = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t line = lines[i];
        const int64_t s = mask >= 0 ? line & mask : floor_mod(line, n_sets);
        if (tags[s] != line) {
            misses++;
            tags[s] = line;
        }
    }
    return misses;
}
