/* The linked-set enumeration of gammoids.digraph._grow_linked in C.

   The algorithm is described in the docstring of
   gammoids.digraph._linkage_independence. The kernel runs it on the
   vertices themselves rather than on _FlowNetwork's vertex-split
   network. It numbers them ground first: ground element e is vertex e,
   and the other vertices follow in the caller's order. The ground has at
   most 24 elements, so a set of candidates is a set of vertices in the
   first 64-bit word of any vertex bitset. A flow is succ[v] and pred[v]
   per vertex (the next and the previous vertex on its path; -1 for the
   sink, for the source, or off every path) plus two vertex bitsets: on
   (vertices on a path) and free (targets whose sink arc carries no
   flow). The reverse search from the sink runs level by level, reaching
   in-nodes and out-nodes of the split network by five residual rules,
   where X <- Y means that X is reached from Y (the residual network has
   an arc X -> Y):
     out(t) <- sink    for a free target t;
     in(v)  <- out(v)  for v on no path;
     in(w)  <- out(v)  for w = succ[v];
     out(u) <- in(v)   for each arc u -> v with u != pred[v];
     out(v) <- in(v)   for v on a path.
   The fourth rule needs no test of u: for v on a path, in(v) is reached
   only from out(pred[v]), which is therefore already marked.
   Each reached out-node keeps one pointer toward the sink; an in-node's
   successor follows from the flow (out(v) off every path, else
   out(pred[v])). A child's flow is the parent's plus a walk along them.
   A search whose extensions are leaves (of full rank) records no
   pointers, since no walk follows it.

   Two searches apply these rules. On a graph of at most 64 vertices,
   search1 holds every vertex set of the search and of the flow in one
   local word, and each vertex's in-neighbours in one word (inmask). On a
   larger graph, search runs over bitsets of nw = ceil(nv / 64) words,
   visits only the nonzero words of each frontier, and keeps each
   vertex's in-neighbours as sparse (word, bits) rows, so the kernel
   allocates O(vertices + arcs) plus its stack, and no table of nv x nv
   bits, up to its cap of 1 << 20 vertices.

   The two engines build different flows, but their results agree. For
   a linked set I and any maximum flow of it, in(e) reaches the sink
   exactly when I + e is linked, so which candidates a search reaches
   depends only on the linked family; so does the routed set, the first
   basis in the caller's vertex order, in which the rank is routed
   whatever the kernel's numbering. The stack order, the candidates (a
   bit mask, lowest element first) and the stop once every candidate is
   reached are those of the Python engine, so indep, the number of
   searches and the first set found to differ are the same.
   gammoids.digraph compiles this file and calls it through ctypes.

   The kernel receives the query itself: n_vertices, the n_arcs arcs as
   (tail, head) pairs of vertex indices in arcs, the n ground elements
   and the n_targets targets as vertex indices. Self-loops and repeated
   arcs change no linked set and are dropped. Every index is checked,
   ground and target indices must not repeat, and every buffer is sized
   from the kernel's own counts, so a hostile query cannot make this
   code read or write out of bounds.

   indep, if not NULL (1 << n bytes, indep[0] already set), receives every
   linked set. expected, if not NULL (1 << n bytes: the independent sets
   of a matroid on the ground, by mask), is compared with them: first the
   rank (the routed linked set R must be independent there, and no R + e
   may be), then every candidate e of every searched set I (reached(e)
   must equal expected[I + e]). At the first difference the kernel
   returns LINKAGE_MISMATCH, so a record that does not present the
   matroid costs at most one search per expected independent set.
   stats[0] receives the number of searches made and stats[1] the first
   set found to differ, or -1.

   Returns LINKAGE_OK, LINKAGE_NO_MEMORY if an allocation failed,
   LINKAGE_BAD_INPUT if the arrays do not describe a query, or
   LINKAGE_MISMATCH. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum {
    LINKAGE_OK = 0,
    LINKAGE_NO_MEMORY = 1,
    LINKAGE_BAD_INPUT = 2,
    LINKAGE_MISMATCH = 3
};

#define MAX_GROUND 24
#define MAX_VERTICES (1 << 20)
#define MAX_ARCS (1 << 24)

typedef uint64_t word;
#define BIT(v) ((word)1 << ((v) & 63))
#define HAS(set, v) ((set)[(v) >> 6] >> ((v) & 63) & 1)

/* the graph's in-neighbours, in the kernel's numbering: on at most 64
   vertices, inmask[v] holds those of v; on more, row v holds them as
   entries (row_word[r], row_bits[r]) for r in row[v] .. row[v + 1] */
struct graph {
    int32_t nv, nw;
    word *inmask;
    int32_t *row, *row_word;
    word *row_bits;
};

/* one flow, in a block of flow_bytes(g): on[nw], free[nw], succ[nv], pred[nv] */
struct flow {
    word *on, *free;
    int32_t *succ, *pred;
};

static size_t flow_bytes(const struct graph *g)
{
    return 2 * (size_t)g->nw * sizeof(word) + 2 * (size_t)g->nv * sizeof(int32_t);
}

static struct flow flow_at(const struct graph *g, void *block)
{
    struct flow f;
    f.on = block;
    f.free = f.on + g->nw;
    f.succ = (int32_t *)(f.free + g->nw);
    f.pred = f.succ + g->nv;
    return f;
}

/* the state of the multi-word search: reached in-nodes and out-nodes,
   and the frontiers with the list of their nonzero words */
struct search {
    word *seen_in, *seen_out, *next_in, *next_out;
    int32_t *in_words, *out_words;
};

/* reverse search from the sink over the residual network of f on a graph
   of at most 64 vertices, level by level, until every candidate in want
   is reached or nothing more is; returns the reached candidates. Each
   reached out-node's pointer (a vertex u: toward in(u)) goes to ptr
   unless ptr is NULL. */
static word search1(const struct graph *g, struct flow f, word want, int32_t *ptr)
{
    const word *inmask = g->inmask;
    word on = f.on[0], seen_in = 0, seen_out = f.free[0], next_out = seen_out;
    while (next_out) {
        /* in(v) <- out(v) off every path, in(succ[v]) <- out(v) on one */
        word next_in = next_out & ~on;
        for (word y = next_out & on; y; y &= y - 1) {
            int32_t w = f.succ[__builtin_ctzll(y)];
            if (w >= 0)
                next_in |= BIT(w);
        }
        next_in &= ~seen_in;
        seen_in |= next_in;
        if (!(want & ~seen_in))
            break;
        /* out(v) <- in(v) on a path, out(u) <- in(v) for each arc u -> v */
        next_out = 0;
        for (; next_in; next_in &= next_in - 1) {
            int32_t v = __builtin_ctzll(next_in);
            word b = (inmask[v] | (on & BIT(v))) & ~seen_out;
            seen_out |= b;
            next_out |= b;
            if (ptr)
                for (; b; b &= b - 1)
                    ptr[__builtin_ctzll(b)] = v;
        }
    }
    return seen_in & want;
}

/* mark the bits b of word i reached in seen and in the frontier next,
   listing i in words if it was empty there; returns the new bits */
static inline word reach(word *seen, word *next, int32_t *words, int32_t *count,
                         int32_t i, word b)
{
    b &= ~seen[i];
    if (b) {
        seen[i] |= b;
        if (!next[i])
            words[(*count)++] = i;
        next[i] |= b;
    }
    return b;
}

/* search1 on a graph of any size, over bitsets of nw words */
static word search(const struct graph *g, const struct search *s, struct flow f,
                   word want, int32_t *ptr)
{
    word *seen_in = s->seen_in, *seen_out = s->seen_out;
    word *next_in = s->next_in, *next_out = s->next_out;
    int32_t *in_words = s->in_words, *out_words = s->out_words;
    int32_t nw = g->nw, n_in, n_out = 0;
    memset(seen_in, 0, 4 * (size_t)nw * sizeof(word)); /* and the frontiers */
    for (int32_t i = 0; i < nw; i++)
        if ((seen_out[i] = next_out[i] = f.free[i]))
            out_words[n_out++] = i;
    while (n_out) {
        /* in(v) <- out(v) off every path, in(succ[v]) <- out(v) on one */
        n_in = 0;
        for (int32_t k = 0; k < n_out; k++) {
            int32_t i = out_words[k];
            word x = next_out[i];
            next_out[i] = 0;
            reach(seen_in, next_in, in_words, &n_in, i, x & ~f.on[i]);
            for (word y = x & f.on[i]; y; y &= y - 1) {
                int32_t w = f.succ[64 * i + __builtin_ctzll(y)];
                if (w >= 0)
                    reach(seen_in, next_in, in_words, &n_in, w >> 6, BIT(w));
            }
        }
        if (!(want & ~seen_in[0]))
            break;
        /* out(v) <- in(v) on a path, out(u) <- in(v) for each arc u -> v */
        n_out = 0;
        for (int32_t k = 0; k < n_in; k++) {
            int32_t i = in_words[k];
            word x = next_in[i];
            next_in[i] = 0;
            for (; x; x &= x - 1) {
                int32_t v = 64 * i + __builtin_ctzll(x);
                if (HAS(f.on, v) && reach(seen_out, next_out, out_words, &n_out, i, BIT(v)) &&
                    ptr)
                    ptr[v] = v;
                for (int32_t r = g->row[v]; r < g->row[v + 1]; r++) {
                    int32_t j = g->row_word[r];
                    word b = reach(seen_out, next_out, out_words, &n_out, j, g->row_bits[r]);
                    if (ptr)
                        for (; b; b &= b - 1)
                            ptr[64 * j + __builtin_ctzll(b)] = v;
                }
            }
        }
    }
    return seen_in[0] & want;
}

/* the candidates in want that one search of f reaches, by the search
   that fits the graph */
static word extensions(const struct graph *g, const struct search *s, struct flow f,
                       word want, int32_t *ptr)
{
    return g->inmask ? search1(g, f, want, ptr) : search(g, s, f, want, ptr);
}

/* push one unit from the source into in(e) and along the search's
   pointers to the sink (in(e) must have been reached) */
static void walk(struct flow f, const int32_t *ptr, int32_t e)
{
    int32_t from = -1, w = e;
    for (;;) {
        /* at in(w), entered from out(from) or the source */
        int32_t v = w;
        if (HAS(f.on, w))
            v = f.pred[w]; /* undo the flow v -> w */
        else
            f.on[w >> 6] |= BIT(w);
        f.pred[w] = from;
        /* at out(v), which needs a new successor */
        for (;;) {
            if (HAS(f.free, v)) {
                f.free[v >> 6] &= ~BIT(v);
                f.succ[v] = -1;
                return;
            }
            int32_t u = ptr[v];
            if (u != v) {
                f.succ[v] = u;
                from = v;
                w = u;
                break;
            }
            /* back through v's internal arc: v leaves its path, and the
               vertex before it needs a new successor */
            f.on[v >> 6] &= ~BIT(v);
            u = f.pred[v];
            f.pred[v] = f.succ[v] = -1;
            v = u;
        }
    }
}

/* grow the linked sets depth first from the empty set (_grow_linked) */
static int grow(const struct graph *g, const struct search *s, int32_t *ptr,
                const void *empty, int32_t n, int32_t rank, const uint8_t *expected,
                uint8_t *indep, int64_t *stats)
{
    size_t bytes = flow_bytes(g);
    /* a searched set pushes at most n - 1 children, one level deeper */
    size_t room = (size_t)(rank + 1) * (size_t)(n + 1);
    uint32_t *masks = malloc(room * sizeof *masks);
    uint32_t *cands = malloc(room * sizeof *cands);
    int32_t *sizes = malloc(room * sizeof *sizes);
    char *flows = malloc(room * bytes);
    void *work = malloc(bytes);
    int64_t searches = 0;
    int status = LINKAGE_NO_MEMORY;
    if (!masks || !cands || !sizes || !flows || !work)
        goto done;
    status = LINKAGE_OK;

    /* linked sets still to search: mask, size, elements that may extend
       it, flow */
    size_t top = 1;
    masks[0] = 0;
    sizes[0] = 0;
    cands[0] = (UINT32_C(1) << n) - 1;
    memcpy(flows, empty, bytes);
    while (top) {
        top--;
        searches++;
        uint32_t parent = masks[top], cand = cands[top];
        int32_t size = sizes[top];
        int leaves = size + 1 == rank;
        memcpy(work, flows + top * bytes, bytes);

        uint32_t reached =
            (uint32_t)extensions(g, s, flow_at(g, work), cand, leaves ? NULL : ptr);
        if (expected) {
            uint32_t hits = 0;
            for (uint32_t c = cand; c; c &= c - 1) {
                int32_t e = __builtin_ctz(c);
                hits |= (uint32_t)expected[parent | UINT32_C(1) << e] << e;
            }
            if (hits != reached) {
                uint32_t first = hits ^ reached;
                stats[1] = parent | (first & -first);
                status = LINKAGE_MISMATCH;
                goto done;
            }
        }

        if (indep)
            for (uint32_t c = reached; c; c &= c - 1)
                indep[parent | UINT32_C(1) << __builtin_ctz(c)] = 1;
        if (leaves)
            continue;
        for (uint32_t c = reached & (reached - 1); c; c &= c - 1) {
            int32_t e = __builtin_ctz(c);
            if (top == room) {
                status = LINKAGE_BAD_INPUT;
                goto done;
            }
            memcpy(flows + top * bytes, work, bytes);
            walk(flow_at(g, flows + top * bytes), ptr, e);
            masks[top] = parent | UINT32_C(1) << e;
            sizes[top] = size + 1;
            cands[top] = reached & ((UINT32_C(1) << e) - 1);
            top++;
        }
    }

done:
    stats[0] = searches;
    free(masks);
    free(cands);
    free(sizes);
    free(flows);
    free(work);
    return status;
}

/* the in-neighbours of the arcs in the kernel's numbering, without
   self-loops or repeats: one word per vertex on at most 64 vertices,
   else rows */
static int build_graph(struct graph *g, int32_t n_arcs, const int32_t *arcs,
                       const int32_t *number)
{
    int32_t nv = g->nv;
    if (nv <= 64) {
        g->inmask = calloc((size_t)nv + 1, sizeof *g->inmask);
        if (!g->inmask)
            return 0;
        for (int32_t j = 0; j < n_arcs; j++)
            if (arcs[2 * j] != arcs[2 * j + 1])
                g->inmask[number[arcs[2 * j + 1]]] |= BIT(number[arcs[2 * j]]);
        return 1;
    }
    int32_t *start = calloc((size_t)nv + 1, sizeof *start);
    int32_t *tails = malloc(((size_t)n_arcs + 1) * sizeof *tails);
    word *bits = calloc((size_t)g->nw + 1, sizeof *bits);
    g->row = malloc(((size_t)nv + 1) * sizeof *g->row);
    g->row_word = malloc(((size_t)n_arcs + 1) * sizeof *g->row_word);
    g->row_bits = malloc(((size_t)n_arcs + 1) * sizeof *g->row_bits);
    int ok = start && tails && bits && g->row && g->row_word && g->row_bits;
    if (ok) {
        /* the tails grouped by head, then merged word by word */
        for (int32_t j = 0; j < n_arcs; j++)
            if (arcs[2 * j] != arcs[2 * j + 1])
                start[number[arcs[2 * j + 1]]]++;
        for (int32_t v = 1; v <= nv; v++)
            start[v] += start[v - 1];
        for (int32_t j = 0; j < n_arcs; j++)
            if (arcs[2 * j] != arcs[2 * j + 1])
                tails[--start[number[arcs[2 * j + 1]]]] = number[arcs[2 * j]];
        int32_t r = 0;
        for (int32_t v = 0; v < nv; v++) {
            g->row[v] = r;
            for (int32_t k = start[v]; k < start[v + 1]; k++) {
                int32_t u = tails[k];
                if (!bits[u >> 6])
                    g->row_word[r++] = u >> 6;
                bits[u >> 6] |= BIT(u);
            }
            for (int32_t q = g->row[v]; q < r; q++) {
                g->row_bits[q] = bits[g->row_word[q]];
                bits[g->row_word[q]] = 0;
            }
        }
        g->row[nv] = r;
    }
    free(start);
    free(tails);
    free(bits);
    return ok;
}

int linkage_independence(int32_t n_vertices, int32_t n_arcs, const int32_t *arcs,
                         int32_t n, const int32_t *ground, int32_t n_targets,
                         const int32_t *targets, const uint8_t *expected,
                         uint8_t *indep, int64_t *stats)
{
    stats[0] = 0;
    stats[1] = -1;
    if (n_vertices < 0 || n_vertices > MAX_VERTICES || n_arcs < 0 ||
        n_arcs > MAX_ARCS || n < 0 || n > MAX_GROUND || n_targets < 0)
        return LINKAGE_BAD_INPUT;
    for (int32_t j = 0; j < 2 * n_arcs; j++)
        if (arcs[j] < 0 || arcs[j] >= n_vertices)
            return LINKAGE_BAD_INPUT;

    int32_t nv = n_vertices, nw = (nv + 63) / 64;
    struct graph g = {nv, nw, NULL, NULL, NULL, NULL};
    struct search s;
    int32_t *number = malloc(((size_t)nv + 1) * sizeof *number);
    word *sets = calloc(4 * (size_t)nw + 1, sizeof *sets);
    int32_t *ints = malloc((2 * (size_t)nw + nv + 1) * sizeof *ints);
    void *empty = malloc(flow_bytes(&g) + 1);
    void *routed_flow = malloc(flow_bytes(&g) + 1);
    int status = LINKAGE_NO_MEMORY;
    if (!number || !sets || !ints || !empty || !routed_flow)
        goto done;
    s.seen_in = sets; /* seen_in .. next_out are cleared as one block */
    s.seen_out = sets + nw;
    s.next_in = sets + 2 * nw;
    s.next_out = sets + 3 * nw;
    s.in_words = ints;
    s.out_words = ints + nw;
    int32_t *ptr = ints + 2 * nw;

    /* number[v]: the kernel's vertex for the caller's vertex v, ground
       first */
    status = LINKAGE_BAD_INPUT;
    for (int32_t v = 0; v < nv; v++)
        number[v] = -1;
    for (int32_t e = 0; e < n; e++) {
        if (ground[e] < 0 || ground[e] >= nv || number[ground[e]] != -1)
            goto done;
        number[ground[e]] = e;
    }
    for (int32_t v = 0, next = n; v < nv; v++)
        if (number[v] == -1)
            number[v] = next++;
    struct flow f = flow_at(&g, empty);
    memset(empty, 0, flow_bytes(&g));
    memset(f.succ, 0xff, 2 * (size_t)nv * sizeof *f.succ); /* succ, pred: -1 */
    for (int32_t t = 0; t < n_targets; t++) {
        if (targets[t] < 0 || targets[t] >= nv || HAS(f.free, number[targets[t]]))
            goto done;
        f.free[number[targets[t]] >> 6] |= BIT(number[targets[t]]);
    }

    status = LINKAGE_NO_MEMORY;
    if (!build_graph(&g, n_arcs, arcs, number))
        goto done;

    /* route the rank: each ground vertex in the caller's vertex order
       takes a path if its in-node reaches the sink; the routed ones form
       a maximum linked set R */
    memcpy(routed_flow, empty, flow_bytes(&g));
    f = flow_at(&g, routed_flow);
    int32_t rank = 0;
    uint32_t routed = 0;
    for (int32_t v = 0; v < nv; v++) {
        int32_t e = number[v];
        if (e < n && extensions(&g, &s, f, BIT(e), ptr)) {
            walk(f, ptr, e);
            routed |= UINT32_C(1) << e;
            rank++;
        }
    }

    status = LINKAGE_MISMATCH;
    if (expected) {
        /* R is a basis of expected: independent, and no R + e is */
        if (!expected[routed]) {
            stats[1] = routed;
            goto done;
        }
        for (int32_t e = 0; e < n; e++)
            if (!(routed >> e & 1) && expected[routed | UINT32_C(1) << e]) {
                stats[1] = routed | UINT32_C(1) << e;
                goto done;
            }
    }
    status = rank ? grow(&g, &s, ptr, empty, n, rank, expected, indep, stats) : LINKAGE_OK;

done:
    free(g.inmask);
    free(g.row);
    free(g.row_word);
    free(g.row_bits);
    free(number);
    free(sets);
    free(ints);
    free(empty);
    free(routed_flow);
    return status;
}
