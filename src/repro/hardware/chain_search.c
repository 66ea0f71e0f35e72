/*
 * The neighbour-chain searches of one embed_variable call, run together
 * and stopped as soon as the root is certain: the native search of
 * repro.hardware.embedding.
 *
 * Each search is a node-weighted multi-source Dijkstra from one
 * neighbour chain: entering node v costs cost[v], and the chain's own
 * nodes are free.  Each search pops its nodes in the order scipy 1.17's
 * dijkstra(min_only=True) does -- distance ascending, the larger node
 * index first among equal distances -- and relaxes a node only on a
 * strict improvement, so every node it pops gets scipy's distance and
 * predecessor.  A node's total is its cost, plus each search's distance
 * in search order, plus amplitude * noise, summed as numpy sums the full
 * arrays; the root is the smallest total, the smaller index on a tie, as
 * np.argmin picks.  The library is built with -ffp-contract=off, so the
 * last product and sum are not fused.
 *
 * The searches share one heap ordered by (distance, larger node first,
 * search), so each search still pops in its own order, whatever the
 * order of its sources.  A node's total is known once every search has
 * popped it.  Totals add non-negative terms, so a total is at least each
 * of its distances, and a node that some search has not popped lies at
 * least that search's next distance from its chain.  Once the next entry
 * exceeds the best total known, every entry does, and no node left
 * unknown can be the root: the loop stops.  It never pushes a distance
 * above the best total either; no node on a path to the root lies that
 * far out.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* scipy's predecessor for a source or an unreached node. */
#define NO_PREDECESSOR (-9999)

/* A heap entry as two words: hi holds the distance's bits, and lo the
 * node's complement above the search.  Pushed distances are finite and
 * non-negative, so their bits order as the doubles do, and one unsigned
 * comparison of (hi, lo) gives the heap order: distance ascending, then
 * the larger node, then the earlier search. */
typedef struct {
    uint64_t hi;
    uint64_t lo;
} entry;

static entry make_entry(double dist, int64_t node, int64_t search)
{
    entry e;
    memcpy(&e.hi, &dist, sizeof e.hi);
    e.lo = ((uint64_t)~(uint32_t)node << 32) | (uint32_t)search;
    return e;
}

static double entry_dist(const entry *e)
{
    double dist;
    memcpy(&dist, &e->hi, sizeof dist);
    return dist;
}

/* (a.hi, a.lo) < (b.hi, b.lo) without a branch: the borrow of the low
 * words joins the high ones.  b.hi + 1 cannot wrap, as the bits of a
 * non-negative double are below 2**63. */
static int earlier(const entry *a, const entry *b)
{
    return a->hi < b->hi + (a->lo < b->lo);
}

static void push(entry *heap, int64_t *size, entry item)
{
    int64_t at = (*size)++;
    while (at > 0) {
        const int64_t parent = (at - 1) / 2;
        if (!earlier(&item, &heap[parent])) {
            break;
        }
        heap[at] = heap[parent];
        at = parent;
    }
    heap[at] = item;
}

static entry pop(entry *heap, int64_t *size)
{
    const entry top = heap[0];
    const entry last = heap[--*size];
    int64_t at = 0;
    for (;;) {
        int64_t child = 2 * at + 1;
        if (child >= *size) {
            break;
        }
        if (child + 1 < *size && earlier(&heap[child + 1], &heap[child])) {
            ++child;
        }
        if (!earlier(&heap[child], &last)) {
            break;
        }
        heap[at] = heap[child];
        at = child;
    }
    heap[at] = last;
    return top;
}

/* The searches over caller-initialised workspace; returns the root or -1. */
static int64_t search(
    int64_t n,
    const int64_t *restrict indptr,
    const int64_t *restrict indices,
    const double *restrict cost,
    int64_t num_searches,
    const int64_t *restrict starts,
    const int64_t *restrict sources,
    const double *restrict noise,
    double amplitude,
    int32_t *restrict pred,
    double *restrict dist,
    unsigned char *restrict popped,
    int32_t *restrict known,
    entry *restrict heap)
{
    for (int64_t i = 0; i < num_searches * n; ++i) {
        dist[i] = INFINITY;
        pred[i] = NO_PREDECESSOR;
    }
    int64_t size = 0;
    for (int64_t k = 0; k < num_searches; ++k) {
        for (int64_t p = starts[k]; p < starts[k + 1]; ++p) {
            const int64_t s = sources[p];
            if (dist[k * n + s] != 0.0) {
                dist[k * n + s] = 0.0;
                push(heap, &size, make_entry(0.0, s, k));
            }
        }
    }
    double best = INFINITY;
    int64_t root = -1;
    while (size > 0 && !(entry_dist(&heap[0]) > best)) {
        const entry top = pop(heap, &size);
        const double du = entry_dist(&top);
        const int64_t k = (uint32_t)top.lo;
        const int64_t u = (uint32_t)~(uint32_t)(top.lo >> 32);
        if (popped[k * n + u]) {
            continue; /* an entry its node has since improved on */
        }
        popped[k * n + u] = 1;
        if (++known[u] == num_searches) {
            double total = cost[u];
            for (int64_t j = 0; j < num_searches; ++j) {
                total = total + dist[j * n + u];
            }
            total = total + amplitude * noise[u];
            if (total < best || (total == best && u < root)) {
                best = total;
                root = u;
            }
        }
        double *d = dist + k * n;
        for (int64_t p = indptr[u]; p < indptr[u + 1]; ++p) {
            const int64_t v = indices[p];
            const double next = du + cost[v];
            if (next < d[v] && !(next > best)) {
                d[v] = next;
                pred[k * n + v] = (int32_t)u;
                push(heap, &size, make_entry(next, v, k));
            }
        }
    }
    return root;
}

/* Returns the root's index, -1 when no node is reachable from every
 * chain (no total is finite), or -2 when memory runs out.  Every chain
 * holds at least one node, and n and num_searches are positive. */
int64_t repro_chain_searches(
    int64_t n,
    const int64_t *restrict indptr,  /* CSR adjacency of the target */
    const int64_t *restrict indices,
    const double *restrict cost,     /* n: the cost of entering each node */
    int64_t num_searches,
    const int64_t *restrict starts,  /* num_searches + 1 offsets into sources */
    const int64_t *restrict sources, /* each search's chain, as node indices */
    const double *restrict noise,    /* n */
    double amplitude,
    int32_t *restrict pred)          /* (num_searches, n), C order, written */
{
    const size_t cells = (size_t)(num_searches * n);
    /* Each search pushes its sources, then at most once per directed
     * edge, since a relaxation that pushes needs a newly popped node. */
    const size_t capacity = (size_t)(starts[num_searches] + num_searches * indptr[n]);
    double *dist = malloc(cells * sizeof *dist);
    unsigned char *popped = calloc(cells, 1);
    int32_t *known = calloc((size_t)n, sizeof *known);
    entry *heap = malloc(capacity * sizeof *heap);
    int64_t root = -2;
    if (dist != NULL && popped != NULL && known != NULL && heap != NULL) {
        root = search(n, indptr, indices, cost, num_searches, starts, sources,
                      noise, amplitude, pred, dist, popped, known, heap);
    }
    free(dist);
    free(popped);
    free(known);
    free(heap);
    return root;
}
