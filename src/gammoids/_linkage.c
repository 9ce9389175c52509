/* The linked-set enumeration of gammoids.digraph._grow_linked in C.

   The algorithm is described in the docstring of
   gammoids.digraph._linkage_independence, and this file follows the
   Python function statement by statement: the same stack order, the
   same candidates (kept as a bit mask, lowest element first), the same
   reverse BFS from the sink that stops once every candidate is reached,
   and the same walk that builds a child's flow. gammoids.digraph
   compiles this file and calls it through ctypes.

   The network is the _FlowNetwork of the presentation: arc a and its
   residual twin a ^ 1 share n_caps = 2 * arcs capacity bytes, heads[a]
   is the node arc a enters, and the arcs leaving node u are
   adj[adj_start[u]] .. adj[adj_start[u + 1] - 1]. Every index is checked
   before use, and every buffer is sized from n, n_nodes and n_caps, so a
   hostile presentation cannot make this code read or write out of
   bounds. indep must hold 1 << n bytes, with indep[0] already set.

   Returns LINKAGE_OK, LINKAGE_NO_MEMORY if an allocation failed, or
   LINKAGE_BAD_INPUT if the arrays do not describe a flow network. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { LINKAGE_OK = 0, LINKAGE_NO_MEMORY = 1, LINKAGE_BAD_INPUT = 2 };

#define MAX_GROUND 24

static int valid_network(int32_t n_nodes, int32_t snk, int32_t n_caps,
                         const int32_t *heads, const int32_t *adj_start,
                         const int32_t *adj, int32_t n, const int32_t *in_node,
                         const int32_t *source_arc, int32_t rank)
{
    if (n < 1 || n > MAX_GROUND || rank < 1 || rank > n || n_caps < 2 ||
        n_caps % 2 || snk < 0 || snk >= n_nodes || adj_start[0] != 0 ||
        adj_start[n_nodes] != n_caps)
        return 0;
    for (int32_t a = 0; a < n_caps; a++)
        if (heads[a] < 0 || heads[a] >= n_nodes)
            return 0;
    for (int32_t u = 0; u < n_nodes; u++) {
        if (adj_start[u] > adj_start[u + 1])
            return 0;
        /* the twin of every arc leaving u enters u: reverse-search
           trees then lead to the sink, so every walk ends there */
        for (int32_t k = adj_start[u]; k < adj_start[u + 1]; k++)
            if (adj[k] < 0 || adj[k] >= n_caps || heads[adj[k] ^ 1] != u)
                return 0;
    }
    for (int32_t e = 0; e < n; e++)
        if (in_node[e] < 0 || in_node[e] >= n_nodes || source_arc[e] < 0 ||
            source_arc[e] >= n_caps)
            return 0;
    return 1;
}

int linkage_independence(int32_t n_nodes, int32_t snk, int32_t n_caps,
                         const int32_t *heads, const int32_t *adj_start,
                         const int32_t *adj, const uint8_t *base, int32_t n,
                         const int32_t *in_node, const int32_t *source_arc,
                         int32_t rank, uint8_t *indep)
{
    if (!valid_network(n_nodes, snk, n_caps, heads, adj_start, adj, n,
                       in_node, source_arc, rank))
        return LINKAGE_BAD_INPUT;
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
    memcpy(flows, base, (size_t)n_caps);
    while (top) {
        top--;
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

        int grow = size + 1 < rank;
        for (int32_t e = 0; e < n; e++) {
            if (!(reached >> e & 1))
                continue;
            uint32_t child = parent | UINT32_C(1) << e;
            uint32_t below = reached & ((UINT32_C(1) << e) - 1);
            indep[child] = 1;
            if (!grow || !below)
                continue;
            if (top == room) {
                status = LINKAGE_BAD_INPUT;
                goto done;
            }
            uint8_t *flow = flows + top * (size_t)n_caps;
            memcpy(flow, caps, (size_t)n_caps);
            flow[source_arc[e] ^ 1] = 1; /* a unit now enters e from the source */
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
