/*
 * The solvers' compiled loops over a DenseInstance's arrays, called through
 * ctypes (see kernel.py, which builds and loads this one library):
 *
 *   - tgen_solve: TGEN's tuple loop (paper Section 5, Algorithm 2), once per
 *     solve of TGENSolver in tgen.py;
 *   - greedy_grow: Greedy's expansion (paper Section 6.1), once per region
 *     GreedySolver in greedy.py grows.
 *
 * Their oracles are the dict-keyed reference twins in reference.py,
 * ReferenceTGEN._run and ReferenceGreedy._grow. TGEN's answers and floats are
 * its twin's, because it keeps the twin's decisions and their order:
 *
 *   - the traversal: the given seed order, a BFS over CSR slots, the visited
 *     edge set keyed by the position pair, the length test, and each edge's
 *     pairs in i-major order over snapshots of the endpoint arrays in dict
 *     order; it adds one skip the twin never takes (see solve);
 *   - the arithmetic: (l_i + l_j) + tau, w_i + w_j and the EPS tests, with
 *     each double operation rounded to double (built with
 *     -ffp-contract=off and no fast-math, and the FLT_EVAL_METHOD check
 *     below), which is how CPython evaluates them;
 *   - the dict semantics of a node's tuple array: insertion order, a
 *     replacement keeps its key's place, and an eviction re-inserts the kept
 *     keys in descending order (the twin's _evict_worst);
 *   - the top-k pool's rules, reference.py's _pool_add and _rank_distinct.
 *
 * Greedy's rules are listed above greedy_grow. Each entry point polls a
 * budget through a callback where its twin polls. The library keeps
 * no static state: a call lives in records on the caller's stack and in
 * what it allocates, so concurrent calls (ctypes releases the GIL) are
 * independent. Every allocation is checked; a failure returns
 * KERNEL_NO_MEMORY after freeing what the call allocated.
 */

#include <float.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "the kernel needs every double operation rounded to double"
#endif

#define KERNEL_OK 0
#define KERNEL_NO_MEMORY 1

/* A budget poll: nonzero once the budget has expired. */
typedef int (*kernel_poll)(void);

/* What one solve reads. Every array stays owned by the caller. */
typedef struct {
    int32_t n;                /* window positions */
    const int32_t *indptr;    /* CSR row pointers, n + 1 */
    const int32_t *indices;   /* CSR columns, as positions */
    const double *lengths;    /* edge lengths, aligned with indices */
    const double *sigma;      /* sigma_v per position */
    const int64_t *scaled;    /* scaled sigma_v per position */
    const int32_t *seeds;     /* the n positions in traversal-seed order */
    double delta;             /* the length constraint */
    double delta_eps;         /* delta + 1e-12, the pair length test */
    double eps;               /* tuples.EPS */
    int32_t max_tuples;       /* tuples kept per node, 0 for no cap */
    int32_t by_length;        /* visit a node's edges by ascending length */
    int32_t top_k;            /* ranked tuples to return, 0 for no pool; with
                                 no pool, edges between zero-scaled arrays
                                 are skipped */
    int32_t pool_size;        /* the pool is cut back to this size */
    kernel_poll expired;      /* the budget poll, NULL for no budget */
} TgenInput;

/* One region tuple. In the kernel's arena left and right are arena ids; in
 * the returned forest they are row numbers. A singleton has no parents
 * (-1) and u == v == its position. */
typedef struct {
    double length;
    double weight;
    int64_t scaled;
    int32_t left, right;
    int32_t u, v;
} TgenRow;

/* What one solve returns. roots is the caller's buffer of 1 + top_k rows:
 * roots[0] is the incumbent and roots[1 .. ranked] the ranked pool. forest
 * holds the derivation trees of the roots, every row after its parents'
 * rows; the caller releases it with tgen_free. */
typedef struct {
    int64_t tuples_generated;
    int64_t edges_processed;
    int64_t edges_skipped;
    int32_t expired;
    int32_t ranked;
    int32_t rows;
    int32_t *roots;
    TgenRow *forest;
} TgenOutput;

/* A node's tuple array: tuple ids in dict order, and an open-addressing
 * index over them by scaled weight (slot value = position + 1, 0 = empty). */
typedef struct {
    int32_t *items;
    int32_t count, cap;
    int32_t *slots;
    int32_t nslots;
    int64_t top;              /* upper bound on the largest key stored */
} NodeArray;

typedef struct {
    int32_t tuple;
    uint64_t hash;
} PoolEntry;

typedef struct {
    const TgenInput *in;
    int32_t words;            /* uint64 words per node mask */
    TgenRow *tup;             /* the arena of every tuple kept */
    uint64_t *mask;           /* words per tuple, aligned with tup */
    int32_t ntup, captup;
    NodeArray *arrays;
    uint64_t *unprocessed;    /* mask of the unprocessed positions */
    int32_t *snap;            /* an edge's endpoint arrays at its start */
    int32_t capsnap;
    PoolEntry *pool, *pool_tmp;
    int32_t npool;
} Solve;

static uint32_t key_hash(int64_t key)
{
    return (uint32_t)(((uint64_t)key * 0x9E3779B97F4A7C15ULL) >> 32);
}

static int grow(void **buffer, int32_t *cap, int64_t need, size_t size)
{
    int64_t next = *cap > 0 ? *cap : 4;
    void *moved;
    if (need <= *cap)
        return 0;
    while (next < need)
        next *= 2;
    if (next > INT32_MAX)
        return -1;
    moved = realloc(*buffer, (size_t)next * size);
    if (moved == NULL)
        return -1;
    *buffer = moved;
    *cap = (int32_t)next;
    return 0;
}

/* A new arena tuple; its mask is left for the caller to fill. -1 when out
 * of memory. */
static int32_t new_tuple(Solve *s)
{
    int32_t cap = s->captup;
    uint64_t *mask;
    if (s->ntup == cap) {
        if (grow((void **)&s->tup, &s->captup, (int64_t)cap + 1, sizeof(TgenRow)))
            return -1;
        mask = realloc(s->mask, (size_t)s->captup * (size_t)s->words * sizeof(uint64_t));
        if (mask == NULL) {
            s->captup = cap;
            return -1;
        }
        s->mask = mask;
    }
    return s->ntup++;
}

/* The tuple combining ti and tj through the edge (u, v). */
static int32_t combine(Solve *s, int32_t ti, int32_t tj, double length, int64_t scaled,
                       int32_t u, int32_t v)
{
    int32_t t = new_tuple(s), w;
    uint64_t *out, *mi, *mj;
    if (t < 0)
        return -1;
    s->tup[t].length = length;
    s->tup[t].weight = s->tup[ti].weight + s->tup[tj].weight;
    s->tup[t].scaled = scaled;
    s->tup[t].left = ti;
    s->tup[t].right = tj;
    s->tup[t].u = u;
    s->tup[t].v = v;
    out = s->mask + (size_t)t * s->words;
    mi = s->mask + (size_t)ti * s->words;
    mj = s->mask + (size_t)tj * s->words;
    for (w = 0; w < s->words; w++)
        out[w] = mi[w] | mj[w];
    return t;
}

/* RegionTuple.better_than on the scalar triple. */
static int beats(double length, double weight, int64_t scaled, const TgenRow *best, double eps)
{
    double gap = weight - best->weight;
    if (scaled != best->scaled)
        return scaled > best->scaled;
    if (gap < 0)
        gap = -gap;
    if (gap > eps)
        return weight > best->weight;
    return length < best->length - eps;
}

/* ------------------------------------------------------------ node arrays */

static int32_t array_find(const Solve *s, const NodeArray *a, int64_t key)
{
    uint32_t wrap = (uint32_t)a->nslots - 1, h = key_hash(key) & wrap;
    for (;;) {
        int32_t slot = a->slots[h];
        if (slot == 0)
            return -1;
        if (s->tup[a->items[slot - 1]].scaled == key)
            return slot - 1;
        h = (h + 1) & wrap;
    }
}

static void slot_put(const Solve *s, NodeArray *a, int32_t pos)
{
    uint32_t wrap = (uint32_t)a->nslots - 1;
    uint32_t h = key_hash(s->tup[a->items[pos]].scaled) & wrap;
    while (a->slots[h] != 0)
        h = (h + 1) & wrap;
    a->slots[h] = pos + 1;
}

/* Rebuild the index of a over nslots slots. */
static int array_reindex(const Solve *s, NodeArray *a, int32_t nslots)
{
    int32_t pos;
    if (nslots != a->nslots) {
        int32_t *slots = realloc(a->slots, (size_t)nslots * sizeof(int32_t));
        if (slots == NULL)
            return -1;
        a->slots = slots;
        a->nslots = nslots;
    }
    memset(a->slots, 0, (size_t)nslots * sizeof(int32_t));
    for (pos = 0; pos < a->count; pos++)
        slot_put(s, a, pos);
    return 0;
}

/* Insert tuple t under a key a does not hold yet, at the end of dict order. */
static int array_append(const Solve *s, NodeArray *a, int32_t t)
{
    if (grow((void **)&a->items, &a->cap, (int64_t)a->count + 1, sizeof(int32_t)))
        return -1;
    a->items[a->count++] = t;
    if (2 * (int64_t)a->count > a->nslots) {
        if ((int64_t)a->nslots * 2 > INT32_MAX)
            return -1;
        return array_reindex(s, a, a->nslots > 0 ? 2 * a->nslots : 8);
    }
    slot_put(s, a, a->count - 1);
    return 0;
}

/* The twin's _evict_worst: keep the `keep` largest keys, in descending key
 * order. Keys are distinct; after the first eviction the array is sorted but
 * for its last key, so an insertion sort costs one pass. */
static int array_keep_best(const Solve *s, NodeArray *a, int32_t keep)
{
    int32_t i, j;
    for (i = 1; i < a->count; i++) {
        int32_t t = a->items[i];
        int64_t key = s->tup[t].scaled;
        for (j = i; j > 0 && s->tup[a->items[j - 1]].scaled < key; j--)
            a->items[j] = a->items[j - 1];
        a->items[j] = t;
    }
    a->count = keep;
    return array_reindex(s, a, a->nslots);
}

/* The dominance update of node's array with the pair's tuple (Lemma 6): it
 * is stored unless the array holds a tuple of its scaled weight that is not
 * longer by more than EPS. *made is the pair's tuple once built (-1 before),
 * shared by every use. -1 when out of memory. */
static int offer(Solve *s, int32_t node, int32_t *made, int32_t ti, int32_t tj,
                 double length, int64_t scaled, int32_t u, int32_t v)
{
    NodeArray *a = &s->arrays[node];
    int32_t pos = array_find(s, a, scaled);
    if (pos >= 0 && !(length < s->tup[a->items[pos]].length - s->in->eps))
        return 0;
    if (*made < 0 && (*made = combine(s, ti, tj, length, scaled, u, v)) < 0)
        return -1;
    if (pos >= 0)
        a->items[pos] = *made;
    else if (array_append(s, a, *made))
        return -1;
    if (scaled > a->top)
        a->top = scaled;
    if (s->in->max_tuples > 0 && a->count > s->in->max_tuples)
        return array_keep_best(s, a, s->in->max_tuples);
    return 0;
}

/* ------------------------------------------------------------------- pool */

static uint64_t mask_hash(const Solve *s, int32_t t)
{
    const uint64_t *m = s->mask + (size_t)t * s->words;
    uint64_t h = 0xCBF29CE484222325ULL;
    int32_t w;
    for (w = 0; w < s->words; w++)
        h = (h ^ m[w]) * 0x100000001B3ULL;
    return h;
}

static int same_mask(const Solve *s, int32_t a, int32_t b)
{
    return memcmp(s->mask + (size_t)a * s->words, s->mask + (size_t)b * s->words,
                  (size_t)s->words * sizeof(uint64_t)) == 0;
}

/* The pool's rank: larger scaled weight, then larger weight, then shorter. */
static int ranks_before(const Solve *s, int32_t a, int32_t b)
{
    const TgenRow *x = &s->tup[a], *y = &s->tup[b];
    if (x->scaled != y->scaled)
        return x->scaled > y->scaled;
    if (x->weight != y->weight)
        return x->weight > y->weight;
    return x->length < y->length;
}

/* A stable merge sort of entries by rank, as list.sort(key=rank). */
static void sort_pool(const Solve *s, PoolEntry *entries, PoolEntry *tmp, int32_t count)
{
    int32_t width, lo;
    for (width = 1; width < count; width *= 2) {
        for (lo = 0; lo < count; lo += 2 * width) {
            int32_t mid = lo + width < count ? lo + width : count;
            int32_t hi = lo + 2 * width < count ? lo + 2 * width : count;
            int32_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi)
                tmp[k++] = ranks_before(s, entries[j].tuple, entries[i].tuple)
                               ? entries[j++] : entries[i++];
            while (i < mid)
                tmp[k++] = entries[i++];
            while (j < hi)
                tmp[k++] = entries[j++];
        }
        memcpy(entries, tmp, (size_t)count * sizeof(PoolEntry));
    }
}

/* reference.py's _pool_add: keep tuple t unless its node set is pooled
 * already; past 2 * pool_size entries, keep the best pool_size. */
static void pool_add(Solve *s, int32_t t)
{
    uint64_t hash = mask_hash(s, t);
    int32_t e;
    for (e = 0; e < s->npool; e++)
        if (s->pool[e].hash == hash && same_mask(s, s->pool[e].tuple, t))
            return;
    s->pool[s->npool].tuple = t;
    s->pool[s->npool].hash = hash;
    s->npool++;
    if (s->npool > 2 * s->in->pool_size) {
        sort_pool(s, s->pool, s->pool_tmp, s->npool);
        s->npool = s->in->pool_size;
    }
}

/* reference.py's _rank_distinct: the best top_k tuples of distinct node
 * sets, into roots. */
static int32_t rank_distinct(Solve *s, int32_t *roots)
{
    int32_t e, r, ranked = 0;
    sort_pool(s, s->pool, s->pool_tmp, s->npool);
    for (e = 0; e < s->npool && ranked < s->in->top_k; e++) {
        for (r = 0; r < ranked; r++)
            if (same_mask(s, roots[r], s->pool[e].tuple))
                break;
        if (r == ranked)
            roots[ranked++] = s->pool[e].tuple;
    }
    return ranked;
}

/* ----------------------------------------------------------------- output */

static int32_t popcount_mask(const Solve *s, int32_t t)
{
    const uint64_t *m = s->mask + (size_t)t * s->words;
    int32_t w, count = 0;
    for (w = 0; w < s->words; w++)
        count += __builtin_popcountll(m[w]);
    return count;
}

/* Copy the derivation trees of roots[0 .. nroots) into out->forest, every
 * tuple once and after its parents, and turn roots into row numbers. A tree
 * of m nodes holds 2m - 1 tuples, which bounds the rows and the depth. */
static int emit_forest(Solve *s, int32_t *roots, int32_t nroots, TgenOutput *out)
{
    int64_t bound = 0, deepest = 0;
    int32_t *row_of = NULL, *stack = NULL, r, sp, rows = 0;
    TgenRow *forest;
    for (r = 0; r < nroots; r++) {
        int64_t size = 2 * (int64_t)popcount_mask(s, roots[r]) - 1;
        bound += size;
        if (size > deepest)
            deepest = size;
    }
    forest = malloc((size_t)bound * sizeof(TgenRow));
    row_of = malloc((size_t)s->ntup * sizeof(int32_t));
    stack = malloc((size_t)deepest * sizeof(int32_t));
    if (forest == NULL || row_of == NULL || stack == NULL) {
        free(forest);
        free(row_of);
        free(stack);
        return -1;
    }
    memset(row_of, 0xFF, (size_t)s->ntup * sizeof(int32_t));
    for (r = 0; r < nroots; r++) {
        stack[0] = roots[r];
        sp = 1;
        while (sp > 0) {
            int32_t t = stack[sp - 1];
            const TgenRow *row = &s->tup[t];
            if (row_of[t] >= 0) {
                sp--;
            } else if (row->left >= 0 && row_of[row->left] < 0) {
                stack[sp++] = row->left;
            } else if (row->right >= 0 && row_of[row->right] < 0) {
                stack[sp++] = row->right;
            } else {
                forest[rows] = *row;
                forest[rows].left = row->left >= 0 ? row_of[row->left] : -1;
                forest[rows].right = row->right >= 0 ? row_of[row->right] : -1;
                row_of[t] = rows++;
                sp--;
            }
        }
        roots[r] = row_of[roots[r]];
    }
    free(row_of);
    free(stack);
    out->forest = forest;
    out->rows = rows;
    return 0;
}

/* ------------------------------------------------------------------ solve */

/* One edge (vi, vj) of length el: combine the endpoint arrays as they stood
 * at its start. Both endpoints are unprocessed, so they are members of every
 * tuple generated; the other members are walked from the tuple's mask. */
static int process_edge(Solve *s, int32_t vi, int32_t vj, double el, int32_t *best,
                        TgenOutput *out)
{
    const TgenInput *in = s->in;
    int collect_pool = in->top_k > 0;
    int32_t ci = s->arrays[vi].count, cj = s->arrays[vj].count, a, b, w;
    int32_t words = s->words, *snap_j;
    if (grow((void **)&s->snap, &s->capsnap, (int64_t)ci + cj, sizeof(int32_t)))
        return -1;
    snap_j = s->snap + ci;
    memcpy(s->snap, s->arrays[vi].items, (size_t)ci * sizeof(int32_t));
    memcpy(snap_j, s->arrays[vj].items, (size_t)cj * sizeof(int32_t));
    for (a = 0; a < ci; a++) {
        int32_t ti = s->snap[a];
        double li = s->tup[ti].length;
        for (b = 0; b < cj; b++) {
            int32_t tj = snap_j[b], made = -1;
            double length = (li + s->tup[tj].length) + el;
            const uint64_t *mi, *mj;
            int64_t scaled;
            if (!(length <= in->delta_eps))
                continue;
            mi = s->mask + (size_t)ti * words;
            mj = s->mask + (size_t)tj * words;
            for (w = 0; w < words; w++)
                if (mi[w] & mj[w])
                    break;
            if (w < words)
                continue; /* Lemma 9: the regions share a node */
            out->tuples_generated++;
            scaled = s->tup[ti].scaled + s->tup[tj].scaled;
            /* The incumbent's scaled weight never falls, so a smaller one
             * cannot beat it. */
            if (scaled >= s->tup[*best].scaled || collect_pool) {
                double weight = s->tup[ti].weight + s->tup[tj].weight;
                int better = beats(length, weight, scaled, &s->tup[*best], in->eps);
                if (better || collect_pool) {
                    if ((made = combine(s, ti, tj, length, scaled, vi, vj)) < 0)
                        return -1;
                    if (better)
                        *best = made;
                    if (collect_pool)
                        pool_add(s, made);
                }
            }
            if (offer(s, vi, &made, ti, tj, length, scaled, vi, vj)
                || offer(s, vj, &made, ti, tj, length, scaled, vi, vj))
                return -1;
            /* Members update independent arrays, so their order is free.
             * The masks are re-read per word: an offer can move the arena. */
            for (w = 0; w < words; w++) {
                uint64_t bits = (s->mask[(size_t)ti * words + w] | s->mask[(size_t)tj * words + w])
                                & s->unprocessed[w];
                if (w == vi >> 6)
                    bits &= ~(1ULL << (vi & 63));
                if (w == vj >> 6)
                    bits &= ~(1ULL << (vj & 63));
                while (bits) {
                    int32_t member = w * 64 + __builtin_ctzll(bits);
                    bits &= bits - 1;
                    if (offer(s, member, &made, ti, tj, length, scaled, vi, vj))
                        return -1;
                }
            }
        }
    }
    return 0;
}

static int solve(Solve *s, TgenOutput *out)
{
    const TgenInput *in = s->in;
    int32_t n = in->n, pos, k, head = 0, tail = 0, best = -1, max_degree = 0;
    int32_t *queue = NULL, *by_length = NULL;
    int64_t *edges = NULL;
    uint32_t edge_wrap;
    uint8_t *visited = NULL;
    int64_t nnz = in->indptr[n], edge_slots = 8;
    int rc = -1;

    s->words = (n + 63) / 64;
    while (edge_slots < 2 * nnz)
        edge_slots *= 2;
    edge_wrap = (uint32_t)edge_slots - 1;
    for (pos = 0; pos < n; pos++)
        if (in->indptr[pos + 1] - in->indptr[pos] > max_degree)
            max_degree = in->indptr[pos + 1] - in->indptr[pos];
    s->arrays = calloc((size_t)n, sizeof(NodeArray));
    s->unprocessed = calloc((size_t)s->words, sizeof(uint64_t));
    queue = malloc((size_t)n * sizeof(int32_t));
    by_length = malloc((size_t)(max_degree > 0 ? max_degree : 1) * sizeof(int32_t));
    visited = calloc((size_t)n, 1);
    edges = malloc((size_t)edge_slots * sizeof(int64_t));
    if (s->arrays == NULL || s->unprocessed == NULL || queue == NULL || by_length == NULL
        || visited == NULL || edges == NULL)
        goto done;
    memset(edges, 0xFF, (size_t)edge_slots * sizeof(int64_t));
    if (in->top_k > 0) {
        s->pool = malloc((size_t)(2 * (int64_t)in->pool_size + 1) * sizeof(PoolEntry));
        s->pool_tmp = malloc((size_t)(2 * (int64_t)in->pool_size + 1) * sizeof(PoolEntry));
        if (s->pool == NULL || s->pool_tmp == NULL)
            goto done;
    }

    /* Every node's array starts with its singleton. */
    for (pos = 0; pos < n; pos++) {
        int32_t t = new_tuple(s);
        TgenRow *row;
        if (t < 0)
            goto done;
        row = &s->tup[t];
        row->length = 0.0;
        row->weight = in->sigma[pos];
        row->scaled = in->scaled[pos];
        row->left = row->right = -1;
        row->u = row->v = pos;
        memset(s->mask + (size_t)t * s->words, 0, (size_t)s->words * sizeof(uint64_t));
        s->mask[(size_t)t * s->words + (pos >> 6)] = 1ULL << (pos & 63);
        s->unprocessed[pos >> 6] |= 1ULL << (pos & 63);
        if (array_append(s, &s->arrays[pos], t))
            goto done;
        s->arrays[pos].top = row->scaled;
        if (best < 0 || beats(row->length, row->weight, row->scaled, &s->tup[best], in->eps))
            best = t;
        if (in->top_k > 0 && row->scaled > 0)
            pool_add(s, t);
    }

    for (k = 0; k < n && !out->expired; k++) {
        int32_t seed = in->seeds[k];
        if (visited[seed])
            continue;
        visited[seed] = 1;
        queue[tail++] = seed;
        while (head < tail && !out->expired) {
            int32_t vi = queue[head++], first = in->indptr[vi], degree = in->indptr[vi + 1] - first;
            int32_t i, j;
            if (in->by_length)
                /* A stable insertion sort, as sorted(key=length). */
                for (i = 0; i < degree; i++) {
                    for (j = i; j > 0 && in->lengths[by_length[j - 1]] > in->lengths[first + i]; j--)
                        by_length[j] = by_length[j - 1];
                    by_length[j] = first + i;
                }
            for (i = 0; i < degree; i++) {
                int32_t slot = in->by_length ? by_length[i] : first + i, vj = in->indices[slot];
                int64_t key = vi <= vj ? (int64_t)vi * n + vj : (int64_t)vj * n + vi;
                uint32_t h = key_hash(key) & edge_wrap;
                double el;
                if (in->expired != NULL && in->expired()) {
                    out->expired = 1;
                    break;
                }
                while (edges[h] >= 0 && edges[h] != key)
                    h = (h + 1) & edge_wrap;
                if (edges[h] == key)
                    continue;
                edges[h] = key;
                if (!visited[vj]) {
                    visited[vj] = 1;
                    queue[tail++] = vj;
                }
                el = in->lengths[slot];
                if (el > in->delta)
                    continue;
                /* With no pool, an edge between two arrays that hold only
                 * zero-scaled tuples is skipped once the incumbent's scaled
                 * weight is positive: all it generates is zero-scaled (a
                 * scaled weight is a sum over members), cannot beat the
                 * incumbent, and cannot displace a stored tuple (each member
                 * is zero-scaled, so its key-0 slot holds its length-0
                 * singleton). top only ever rises, so an eviction forgoes a
                 * skip but never takes a wrong one. */
                if (in->top_k == 0 && s->tup[best].scaled > 0 && s->arrays[vi].top == 0
                    && s->arrays[vj].top == 0) {
                    out->edges_skipped++;
                    continue;
                }
                out->edges_processed++;
                if (process_edge(s, vi, vj, el, &best, out))
                    goto done;
            }
            s->unprocessed[vi >> 6] &= ~(1ULL << (vi & 63));
        }
    }

    out->roots[0] = best;
    out->ranked = in->top_k > 0 ? rank_distinct(s, out->roots + 1) : 0;
    if (emit_forest(s, out->roots, 1 + out->ranked, out))
        goto done;
    rc = 0;
done:
    free(queue);
    free(by_length);
    free(visited);
    free(edges);
    return rc;
}

int tgen_solve(const TgenInput *in, TgenOutput *out)
{
    Solve s;
    int32_t pos;
    int rc;
    memset(&s, 0, sizeof s);
    s.in = in;
    out->tuples_generated = out->edges_processed = out->edges_skipped = 0;
    out->expired = out->ranked = out->rows = 0;
    out->forest = NULL;
    rc = solve(&s, out);
    if (s.arrays != NULL)
        for (pos = 0; pos < in->n; pos++) {
            free(s.arrays[pos].items);
            free(s.arrays[pos].slots);
        }
    free(s.arrays);
    free(s.unprocessed);
    free(s.tup);
    free(s.mask);
    free(s.snap);
    free(s.pool);
    free(s.pool_tmp);
    return rc == 0 ? KERNEL_OK : KERNEL_NO_MEMORY;
}

void tgen_free(TgenRow *forest)
{
    free(forest);
}

/* ================================================================= Greedy */

/* What one grown region reads. Every array stays owned by the caller. */
typedef struct {
    int32_t n;                /* window positions */
    const int32_t *indptr;    /* CSR row pointers, n + 1 */
    const int32_t *indices;   /* CSR columns, as positions */
    const double *lengths;    /* edge lengths, aligned with indices */
    const double *sigma;      /* sigma_v per position */
    const int64_t *ids;       /* node id per position */
    const int32_t *relevant;  /* the relevant positions, relevant_order */
    int32_t nrelevant;
    const uint8_t *excluded;  /* n bytes, 1 where an earlier region grew */
    double mu;                /* the rank's balance parameter */
    double tau_max;           /* the longest window edge, or 1.0 */
    double delta_eps;         /* delta + 1e-12, the length test */
    kernel_poll expired;      /* the budget poll, NULL for no budget */
} GreedyInput;

/* What one grown region returns. positions and attached are the caller's
 * buffers of n entries: positions[0 .. size) are the region's positions in
 * the order they joined, and attached[i] is the member positions[i] joined
 * through (attached[0] = -1 for the seed). size is 0 when no region grows:
 * no relevant position is available, or their largest sigma is not
 * positive. */
typedef struct {
    int64_t scanned;          /* candidate entries scanned, over all rounds */
    int64_t compacted;        /* entries dropped by compaction */
    double length;            /* the region's length */
    int32_t expired;
    int32_t size;
    int32_t *positions;
    int32_t *attached;
} GreedyOutput;

/* One entry of the candidate table: an edge from a member to a position. */
typedef struct {
    double length;
    double rank;
    int64_t id;               /* the position's node id, the tie-breaker */
    int32_t pos;
    int32_t member;
} Candidate;

/* An entry that can never be selected again: its position joined the region
 * or is excluded, or its edge no longer fits (the length only grows). */
static int candidate_dead(const GreedyInput *in, const uint8_t *in_region, const Candidate *c,
                          double total)
{
    return in_region[c->pos] || in->excluded[c->pos] || total + c->length > in->delta_eps;
}

/* Grow one region as ReferenceGreedy._grow does, with its decisions in its
 * order:
 *
 *   - the seed is the available relevant position of largest sigma, the
 *     largest id on ties, and sigma_max is that sigma;
 *   - each member, as it joins, appends its CSR row in order to one
 *     candidate table, ranked mu * (1.0 - l / tau_max)
 *     + (1.0 - mu) * sigma / sigma_max with the twin's expression tree;
 *   - each round polls the budget once, then scans the whole table: the
 *     first live entry, then any of higher rank or of rank within 1e-12
 *     and a smaller id, wins;
 *   - once dead entries make up over half of a table of more than 64,
 *     judged after the selection, the table keeps only its live entries, in
 *     order. Only dead entries go, so the selections are the unpruned ones. */
int greedy_grow(const GreedyInput *in, GreedyOutput *out)
{
    int32_t k, seed = -1, count = 0, cap = 0, member;
    double sigma_max = 0.0, total = 0.0, one_minus_mu = 1.0 - in->mu;
    Candidate *table = NULL;
    uint8_t *in_region;

    out->scanned = out->compacted = 0;
    out->length = 0.0;
    out->expired = out->size = 0;
    for (k = 0; k < in->nrelevant; k++) {
        int32_t pos = in->relevant[k];
        if (in->excluded[pos])
            continue;
        if (seed < 0 || in->sigma[pos] > sigma_max
            || (in->sigma[pos] == sigma_max && in->ids[pos] > in->ids[seed])) {
            seed = pos;
            sigma_max = in->sigma[pos];
        }
    }
    if (seed < 0 || sigma_max <= 0.0)
        return KERNEL_OK;
    in_region = calloc((size_t)in->n, 1);
    if (in_region == NULL)
        return KERNEL_NO_MEMORY;
    in_region[seed] = 1;
    out->positions[0] = seed;
    out->attached[0] = -1;
    out->size = 1;
    member = seed;
    for (;;) {
        int32_t slot, first = in->indptr[member], last = in->indptr[member + 1];
        int32_t best = -1, dead = 0;
        double best_rank = 0.0;
        int64_t best_id = -1;
        if (in->expired != NULL && in->expired()) {
            out->expired = 1;
            break;
        }
        if (grow((void **)&table, &cap, (int64_t)count + (last - first), sizeof(Candidate))) {
            free(table);
            free(in_region);
            return KERNEL_NO_MEMORY;
        }
        for (slot = first; slot < last; slot++) {
            Candidate *c = &table[count++];
            c->pos = in->indices[slot];
            c->member = member;
            c->length = in->lengths[slot];
            c->rank = in->mu * (1.0 - c->length / in->tau_max)
                      + one_minus_mu * in->sigma[c->pos] / sigma_max;
            c->id = in->ids[c->pos];
        }
        for (slot = 0; slot < count; slot++) {
            const Candidate *c = &table[slot];
            double gap;
            if (candidate_dead(in, in_region, c, total)) {
                dead++;
                continue;
            }
            gap = c->rank - best_rank;
            if (gap < 0)
                gap = -gap;
            if (best < 0 || c->rank > best_rank || (gap <= 1e-12 && c->id < best_id)) {
                best = slot;
                best_rank = c->rank;
                best_id = c->id;
            }
        }
        out->scanned += count;
        if (best < 0)
            break;
        member = table[best].pos;
        in_region[member] = 1;
        out->positions[out->size] = member;
        out->attached[out->size] = table[best].member;
        out->size++;
        total += table[best].length;
        if (2 * (int64_t)dead > count && count > 64) {
            int32_t kept = 0;
            for (slot = 0; slot < count; slot++)
                if (!candidate_dead(in, in_region, &table[slot], total))
                    table[kept++] = table[slot];
            out->compacted += count - kept;
            count = kept;
        }
    }
    out->length = total;
    free(table);
    free(in_region);
    return KERNEL_OK;
}
