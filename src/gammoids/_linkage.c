/* The linked-set enumeration of gammoids.digraph._grow_linked in C.

   The algorithm is described in the docstring of
   gammoids.digraph._linkage_independence, and this file follows the
   Python engine statement by statement: the same network, the same
   routing of the rank, the same stack order, the same candidates (kept
   as a bit mask, lowest element first), the same reverse BFS from the
   sink that stops once every candidate is reached, and the same walk
   that builds a child's flow. gammoids.digraph compiles this file and
   calls it through ctypes.

   The kernel receives the query itself: n_vertices, the n_arcs arcs as
   (tail, head) pairs of vertex indices in arcs, the n ground elements
   and the n_targets targets as vertex indices. It builds the
   vertex-split network of _FlowNetwork with the same arc order: arc k
   and its residual twin sit at 2k and 2k + 1, the arcs leaving node u
   at adj[adj_start[u]] .. adj[adj_start[u + 1] - 1]. Every index is
   checked, ground and target indices must not repeat, and every buffer
   is sized from the kernel's own counts, so a hostile query cannot make
   this code read or write out of bounds.

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

/* the vertex-split network, laid out as _FlowNetwork lays it out */
struct network {
    int32_t n_nodes, src, snk, n_caps;
    int32_t *heads, *adj_start, *adj;
    uint8_t *base;
};

static void free_network(struct network *net)
{
    free(net->heads);
    free(net->adj_start);
    free(net->adj);
    free(net->base);
}

/* vertex i splits into in-node 2i and out-node 2i + 1; arcs are added as
   source arcs (closed), internal arcs, graph arcs, then sink arcs from
   the targets in vertex order */
static int build_network(struct network *net, int32_t n_vertices, int32_t n_arcs,
                         const int32_t *arcs, const uint8_t *is_target,
                         int32_t n_targets)
{
    int32_t nv = n_vertices;
    net->n_nodes = 2 * nv + 2;
    net->src = 2 * nv;
    net->snk = 2 * nv + 1;
    net->n_caps = 2 * (2 * nv + n_arcs + n_targets);
    net->heads = malloc((size_t)net->n_caps * sizeof *net->heads);
    net->adj_start = calloc((size_t)net->n_nodes + 1, sizeof *net->adj_start);
    net->adj = malloc((size_t)net->n_caps * sizeof *net->adj);
    net->base = malloc((size_t)net->n_caps);
    if (!net->heads || !net->adj_start || !net->adj || !net->base)
        return 0;

    int32_t k = 0;
#define ADD(u, v, c)                                                      \
    do {                                                                  \
        net->heads[k] = (v);                                              \
        net->base[k++] = (c);                                             \
        net->heads[k] = (u);                                              \
        net->base[k++] = 0;                                               \
    } while (0)
    for (int32_t i = 0; i < nv; i++)
        ADD(net->src, 2 * i, 0);
    for (int32_t i = 0; i < nv; i++)
        ADD(2 * i, 2 * i + 1, 1);
    for (int32_t j = 0; j < n_arcs; j++)
        ADD(2 * arcs[2 * j] + 1, 2 * arcs[2 * j + 1], 1);
    for (int32_t i = 0; i < nv; i++)
        if (is_target[i])
            ADD(2 * i + 1, net->snk, 1);
#undef ADD

    /* entry a leaves node heads[a ^ 1]; a stable counting sort keeps each
       node's arcs in the order they were added */
    int32_t *start = net->adj_start;
    for (int32_t a = 0; a < net->n_caps; a++)
        start[net->heads[a ^ 1] + 1]++;
    for (int32_t u = 0; u < net->n_nodes; u++)
        start[u + 1] += start[u];
    int32_t *fill = malloc((size_t)net->n_nodes * sizeof *fill);
    if (!fill)
        return 0;
    memcpy(fill, start, (size_t)net->n_nodes * sizeof *fill);
    for (int32_t a = 0; a < net->n_caps; a++)
        net->adj[fill[net->heads[a ^ 1]]++] = a;
    free(fill);
    return 1;
}

/* _FlowNetwork.augment: push one unit along a BFS-shortest residual path
   from the source, if any exists */
static int augment(const struct network *net, uint8_t *caps, int32_t *prev,
                   int32_t *queue)
{
    memset(prev, 0xff, (size_t)net->n_nodes * sizeof *prev); /* all -1 */
    prev[net->src] = -2;
    queue[0] = net->src;
    int32_t tail = 1;
    for (int32_t head = 0; head < tail; head++) {
        int32_t u = queue[head];
        for (int32_t k = net->adj_start[u]; k < net->adj_start[u + 1]; k++) {
            int32_t a = net->adj[k], v = net->heads[a];
            if (!caps[a] || prev[v] != -1)
                continue;
            prev[v] = a;
            if (v == net->snk) {
                while (v != net->src) {
                    a = prev[v];
                    caps[a]--;
                    caps[a ^ 1]++;
                    v = net->heads[a ^ 1];
                }
                return 1;
            }
            queue[tail++] = v;
        }
    }
    return 0;
}

/* grow the linked sets depth first from the empty set (_grow_linked) */
static int grow(const struct network *net, int32_t n, const int32_t *in_node,
                int32_t rank, const uint8_t *expected, uint8_t *indep,
                int64_t *stats)
{
    /* locals, not fields: a byte store may alias a field, not a local */
    const int32_t n_caps = net->n_caps, n_nodes = net->n_nodes, snk = net->snk;
    const int32_t *heads = net->heads, *adj_start = net->adj_start, *adj = net->adj;
    /* a searched set pushes at most n - 1 children, one level deeper */
    size_t room = (size_t)(rank + 1) * (size_t)(n + 1);
    uint32_t *masks = malloc(room * sizeof *masks);
    uint32_t *cands = malloc(room * sizeof *cands);
    int32_t *sizes = malloc(room * sizeof *sizes);
    uint8_t *flows = malloc(room * (size_t)n_caps);
    uint8_t *caps = malloc((size_t)n_caps);
    int32_t *toward = malloc((size_t)n_nodes * sizeof *toward);
    int32_t *queue = malloc((size_t)n_nodes * sizeof *queue);
    uint8_t *wanted = calloc((size_t)n_nodes, 1);
    int64_t searches = 0;
    int status = LINKAGE_NO_MEMORY;
    if (!masks || !cands || !sizes || !flows || !caps || !toward || !queue ||
        !wanted)
        goto done;
    status = LINKAGE_OK;

    /* linked sets still to search: mask, size, elements that may extend
       it, flow */
    size_t top = 1;
    masks[0] = 0;
    sizes[0] = 0;
    cands[0] = (UINT32_C(1) << n) - 1;
    memcpy(flows, net->base, (size_t)n_caps);
    while (top) {
        top--;
        searches++;
        uint32_t parent = masks[top], cand = cands[top];
        int32_t size = sizes[top];
        memcpy(caps, flows + top * (size_t)n_caps, (size_t)n_caps);

        /* reverse BFS from the sink over residual arcs, stopping once
           every candidate's in-node is reached (sink_tree) */
        int32_t left = 0;
        for (int32_t e = 0; e < n; e++)
            if (cand >> e & 1 && !wanted[in_node[e]]) {
                wanted[in_node[e]] = 1;
                left++;
            }
        memset(toward, 0xff, (size_t)n_nodes * sizeof *toward); /* all -1 */
        toward[snk] = -2;
        queue[0] = snk;
        int32_t tail = 1;
        for (int32_t head = 0; head < tail && left; head++) {
            int32_t w = queue[head];
            for (int32_t k = adj_start[w]; k < adj_start[w + 1]; k++) {
                int32_t a = adj[k] ^ 1, v = heads[adj[k]];
                if (caps[a] && toward[v] == -1) {
                    toward[v] = a;
                    if (wanted[v] && !--left)
                        break;
                    queue[tail++] = v;
                }
            }
        }
        uint32_t reached = 0;
        for (int32_t e = 0; e < n; e++)
            if (cand >> e & 1) {
                wanted[in_node[e]] = 0;
                if (toward[in_node[e]] != -1)
                    reached |= UINT32_C(1) << e;
            }
        if (expected)
            for (int32_t e = 0; e < n; e++)
                if (cand >> e & 1 &&
                    !expected[parent | UINT32_C(1) << e] != !(reached >> e & 1)) {
                    stats[1] = parent | UINT32_C(1) << e;
                    status = LINKAGE_MISMATCH;
                    goto done;
                }

        int more = size + 1 < rank;
        for (int32_t e = 0; e < n; e++) {
            if (!(reached >> e & 1))
                continue;
            uint32_t child = parent | UINT32_C(1) << e;
            uint32_t below = reached & ((UINT32_C(1) << e) - 1);
            if (indep)
                indep[child] = 1;
            if (!more || !below)
                continue;
            if (top == room) {
                status = LINKAGE_BAD_INPUT;
                goto done;
            }
            uint8_t *flow = flows + top * (size_t)n_caps;
            memcpy(flow, caps, (size_t)n_caps);
            flow[in_node[e] ^ 1] = 1; /* a unit now enters e from the source:
                                         the source arc of in-node 2i is arc 2i */
            for (int32_t v = in_node[e]; v != snk;) {
                int32_t a = toward[v];
                flow[a]--;
                flow[a ^ 1]++;
                v = heads[a];
            }
            masks[top] = child;
            sizes[top] = size + 1;
            cands[top] = below;
            top++;
        }
    }

done:
    stats[0] = searches;
    free(masks);
    free(cands);
    free(sizes);
    free(flows);
    free(caps);
    free(toward);
    free(queue);
    free(wanted);
    return status;
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

    struct network net = {0};
    int32_t *element = malloc(((size_t)n_vertices + 1) * sizeof *element);
    uint8_t *is_target = calloc((size_t)n_vertices + 1, 1);
    int32_t *in_node = malloc(((size_t)n + 1) * sizeof *in_node);
    uint8_t *caps = NULL;
    int32_t *prev = NULL, *queue = NULL;
    int status = LINKAGE_NO_MEMORY;
    if (!element || !is_target || !in_node)
        goto done;

    /* element[v]: the ground element at vertex v, or -1 */
    status = LINKAGE_BAD_INPUT;
    for (int32_t v = 0; v < n_vertices; v++)
        element[v] = -1;
    for (int32_t e = 0; e < n; e++) {
        if (ground[e] < 0 || ground[e] >= n_vertices || element[ground[e]] != -1)
            goto done;
        element[ground[e]] = e;
        in_node[e] = 2 * ground[e];
    }
    for (int32_t t = 0; t < n_targets; t++) {
        if (targets[t] < 0 || targets[t] >= n_vertices || is_target[targets[t]])
            goto done;
        is_target[targets[t]] = 1;
    }

    status = LINKAGE_NO_MEMORY;
    if (!build_network(&net, n_vertices, n_arcs, arcs, is_target, n_targets))
        goto done;
    caps = malloc((size_t)net.n_caps);
    prev = malloc((size_t)net.n_nodes * sizeof *prev);
    queue = malloc((size_t)net.n_nodes * sizeof *queue);
    if (!caps || !prev || !queue)
        goto done;

    /* route the rank: open the ground's sources (arc 2i for vertex i) in
       vertex order, augmenting after each; the saturated ones form a
       maximum linked set R */
    memcpy(caps, net.base, (size_t)net.n_caps);
    int32_t rank = 0;
    uint32_t routed = 0;
    for (int32_t v = 0; v < n_vertices; v++)
        if (element[v] != -1) {
            caps[2 * v] = 1;
            rank += augment(&net, caps, prev, queue);
        }
    for (int32_t e = 0; e < n; e++)
        if (caps[in_node[e] ^ 1])
            routed |= UINT32_C(1) << e;

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
    status = rank ? grow(&net, n, in_node, rank, expected, indep, stats) : LINKAGE_OK;

done:
    free_network(&net);
    free(element);
    free(is_target);
    free(in_node);
    free(caps);
    free(prev);
    free(queue);
    return status;
}
