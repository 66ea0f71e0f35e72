/*
 * One embed_variable step of repro.hardware.embedding in one call: the
 * neighbour-chain searches, stopped as soon as the root is certain, the
 * walk from the root into each neighbour chain, and the trim of the
 * walks' union.
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
 * Each search has its own heap, and the searches advance in lockstep:
 * the next pop is the earliest head by (distance, larger node first,
 * search).  Costs are non-negative node weights, so a node's first
 * relaxation is final and a search pushes each node at most once: a
 * heap never holds more than n entries.  A node's total is known once
 * every search has popped it.  Until then its total is at least its
 * bound: its cost, plus each search's distance where that search has
 * popped it or else that search's next distance, plus amplitude * noise,
 * summed in the totals' order.  Every term is non-negative and rounding
 * keeps such a sum monotone, so no total is below its bound.  A node
 * whose bound exceeds the best total, or equals it at a larger index
 * than the root's, cannot be the root, and it stays beaten: next
 * distances only rise and the best total only falls.  The loop stops
 * once every node that is not known is beaten.  The nodes no search has
 * popped share one bound, the smallest cost plus every next distance,
 * checked before each pop; the partly known ones wait in a list that is
 * rescanned, and pruned, at most once per SCAN_EVERY pops.  No distance
 * above the best total is pushed either: no node on a path from the root
 * into a chain lies that far out.
 *
 * The walks and the trim are _EmbedderState's.  A walk runs from the
 * root along its search's predecessors and lists the nodes it passes
 * until it enters the chain.  Trimming removes, one node per pass, the
 * first node of the chain in label order (the caller's rank) that is
 * neither a cut node of the chain nor the only chain node adjacent to
 * some neighbour chain; it stops when no node qualifies, when one node
 * is left, or at once when no chain node is adjacent to some neighbour
 * chain.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* scipy's predecessor for a source or an unreached node. */
#define NO_PREDECESSOR (-9999)
/* Pops between two scans of the partly known nodes: scanning on every
 * pop costs more than the pops it saves. */
#define SCAN_EVERY 16
/* What the exported functions return for a negative or NaN cost or
 * noise value, and when memory runs out. */
#define BAD_INPUT (-3)
#define NO_MEMORY (-2)

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

/* The searches of one call and their workspace. */
typedef struct {
    int64_t n;
    const int64_t *indptr;   /* CSR adjacency of the target */
    const int64_t *indices;
    const double *cost;      /* n */
    int64_t num_searches;
    const double *noise;     /* n */
    double amplitude;
    int32_t *pred;           /* (num_searches, n) */
    double *dist;            /* (num_searches, n) */
    unsigned char *popped;   /* (num_searches, n), zeroed */
    int32_t *known;          /* n, zeroed: how many searches popped each node */
    entry *heaps;            /* (num_searches, n) */
    int64_t *sizes;          /* num_searches */
    int32_t *partial;        /* n: nodes some but not every search popped */
} searches;

static double next_dist(const searches *s, int64_t k)
{
    return s->sizes[k] > 0 ? entry_dist(&s->heaps[k * s->n]) : INFINITY;
}

/* Keeps the listed partly known nodes that are still neither known nor
 * beaten; returns how many it kept. */
static int64_t rescan(const searches *s, int64_t count, double best, int64_t root)
{
    const int64_t n = s->n;
    int64_t kept = 0;
    for (int64_t i = 0; i < count; ++i) {
        const int32_t u = s->partial[i];
        if (s->known[u] == s->num_searches) {
            continue;
        }
        double bound = s->cost[u];
        for (int64_t k = 0; k < s->num_searches; ++k) {
            bound = bound + (s->popped[k * n + u] ? s->dist[k * n + u] : next_dist(s, k));
        }
        bound = bound + s->amplitude * s->noise[u];
        if (!(bound > best || (bound == best && u > root))) {
            s->partial[kept++] = u;
        }
    }
    return kept;
}

/* Runs the searches from each chain (starts, sources) until the root is
 * certain; returns it, -1 when no total is finite, or BAD_INPUT. */
static int64_t run(searches *s, const int64_t *starts, const int64_t *sources)
{
    const int64_t n = s->n;
    const int64_t num_searches = s->num_searches;
    double cheapest = INFINITY;
    for (int64_t i = 0; i < n; ++i) {
        if (!(s->cost[i] >= 0.0) || !(s->noise[i] >= 0.0)) {
            return BAD_INPUT;
        }
        if (s->cost[i] < cheapest) {
            cheapest = s->cost[i];
        }
    }
    for (int64_t i = 0; i < num_searches * n; ++i) {
        s->dist[i] = INFINITY;
        s->pred[i] = NO_PREDECESSOR;
    }
    for (int64_t k = 0; k < num_searches; ++k) {
        s->sizes[k] = 0;
        for (int64_t p = starts[k]; p < starts[k + 1]; ++p) {
            const int64_t source = sources[p];
            if (s->dist[k * n + source] != 0.0) {
                s->dist[k * n + source] = 0.0;
                push(s->heaps + k * n, &s->sizes[k], make_entry(0.0, source, k));
            }
        }
    }
    double best = INFINITY;
    int64_t root = -1;
    int64_t num_partial = 0;
    int64_t pops = 0;
    int64_t scan_at = 0;
    for (;;) {
        /* The search to pop next, and the bound of every node that no
         * search has popped. */
        int64_t k = -1;
        double unseen = cheapest;
        for (int64_t j = 0; j < num_searches; ++j) {
            unseen = unseen + next_dist(s, j);
            if (s->sizes[j] > 0 && (k < 0 || earlier(&s->heaps[j * n], &s->heaps[k * n]))) {
                k = j;
            }
        }
        if (k < 0 || entry_dist(&s->heaps[k * n]) > best) {
            break; /* every unknown node lies beyond the best total */
        }
        if ((unseen > best || (unseen == best && root < 0))
            && (num_partial == 0 || pops >= scan_at)) {
            num_partial = rescan(s, num_partial, best, root);
            if (num_partial == 0) {
                break;
            }
            scan_at = pops + SCAN_EVERY;
        }
        const entry top = pop(s->heaps + k * n, &s->sizes[k]);
        ++pops;
        const double du = entry_dist(&top);
        const int64_t u = (uint32_t)~(uint32_t)(top.lo >> 32);
        s->popped[k * n + u] = 1;
        const int32_t seen = ++s->known[u];
        if (seen == num_searches) {
            double total = s->cost[u];
            for (int64_t j = 0; j < num_searches; ++j) {
                total = total + s->dist[j * n + u];
            }
            total = total + s->amplitude * s->noise[u];
            if (total < best || (total == best && u < root)) {
                best = total;
                root = u;
            }
        } else if (seen == 1) {
            s->partial[num_partial++] = (int32_t)u;
        }
        double *d = s->dist + k * n;
        for (int64_t p = s->indptr[u]; p < s->indptr[u + 1]; ++p) {
            const int64_t v = s->indices[p];
            const double next = du + s->cost[v];
            if (next < d[v] && !(next > best)) {
                d[v] = next;
                s->pred[k * n + v] = (int32_t)u;
                push(s->heaps + k * n, &s->sizes[k], make_entry(next, v, k));
            }
        }
    }
    return root;
}

/* Allocates the searches' workspace around the caller's pred (or its
 * own when pred is NULL), runs them and frees it; returns run's result
 * or NO_MEMORY.  On success with own_pred set, *own_pred receives the
 * workspace's predecessors, which the caller frees. */
static int64_t run_searches(
    int64_t n, const int64_t *indptr, const int64_t *indices,
    const double *cost, int64_t num_searches, const int64_t *starts,
    const int64_t *sources, const double *noise, double amplitude,
    int32_t *pred, int32_t **own_pred)
{
    const size_t cells = (size_t)(num_searches * n);
    searches s = {
        .n = n, .indptr = indptr, .indices = indices, .cost = cost,
        .num_searches = num_searches, .noise = noise, .amplitude = amplitude,
        .pred = pred != NULL ? pred : malloc(cells * sizeof(int32_t)),
        .dist = malloc(cells * sizeof(double)),
        .popped = calloc(cells, 1),
        .known = calloc((size_t)n, sizeof(int32_t)),
        .heaps = malloc(cells * sizeof(entry)),
        .sizes = malloc((size_t)num_searches * sizeof(int64_t)),
        .partial = malloc((size_t)n * sizeof(int32_t)),
    };
    int64_t root = NO_MEMORY;
    if (s.pred != NULL && s.dist != NULL && s.popped != NULL && s.known != NULL
        && s.heaps != NULL && s.sizes != NULL && s.partial != NULL) {
        root = run(&s, starts, sources);
    }
    if (pred == NULL) {
        if (root >= 0) {
            *own_pred = s.pred;
        } else {
            free(s.pred);
        }
    }
    free(s.dist);
    free(s.popped);
    free(s.known);
    free(s.heaps);
    free(s.sizes);
    free(s.partial);
    return root;
}

/* Marks each chain's nodes in member, (num_chains, n) and zeroed. */
static void mark_chains(
    int64_t n, int64_t num_chains, const int64_t *starts,
    const int64_t *sources, unsigned char *member)
{
    for (int64_t k = 0; k < num_chains; ++k) {
        for (int64_t p = starts[k]; p < starts[k + 1]; ++p) {
            member[k * n + sources[p]] = 1;
        }
    }
}

/* Marks the cut nodes among the live nodes of a connected chain: one
 * depth-first search with Hopcroft and Tarjan's low points.  slot maps
 * a node to its place in chain, -1 for nodes outside it. */
static void find_cuts(
    const int64_t *indptr, const int64_t *indices, int64_t size,
    const int32_t *chain, const int32_t *slot, const unsigned char *live,
    unsigned char *cut, int32_t *order, int32_t *low, int64_t *cursor,
    int32_t *stack)
{
    int32_t start = -1;
    for (int32_t i = 0; i < size; ++i) {
        order[i] = -1;
        cut[i] = 0;
        if (start < 0 && live[i]) {
            start = i;
        }
    }
    int32_t visited = 1;
    int64_t start_children = 0;
    int64_t top = 1;
    order[start] = low[start] = 0;
    cursor[start] = indptr[chain[start]];
    stack[0] = start;
    while (top > 0) {
        const int32_t i = stack[top - 1];
        if (cursor[i] < indptr[chain[i] + 1]) {
            const int32_t j = slot[indices[cursor[i]++]];
            if (j < 0 || !live[j]) {
                continue;
            }
            if (order[j] >= 0) {
                if (order[j] < low[i]) {
                    low[i] = order[j];
                }
                continue;
            }
            order[j] = low[j] = visited++;
            cursor[j] = indptr[chain[j]];
            stack[top++] = j;
            continue;
        }
        if (--top == 0) {
            break;
        }
        const int32_t parent = stack[top - 1];
        if (low[i] < low[parent]) {
            low[parent] = low[i];
        }
        if (parent == start) {
            ++start_children;
        } else if (low[i] >= order[parent]) {
            cut[parent] = 1;
        }
    }
    if (start_children > 1) {
        cut[start] = 1;
    }
}

/* Trims the connected chain of size distinct nodes against the chains
 * marked in member; writes the removed nodes to removed in removal order
 * and returns how many, or NO_MEMORY. */
static int64_t trim(
    int64_t n, const int64_t *indptr, const int64_t *indices,
    const int32_t *rank, int64_t num_chains, const unsigned char *member,
    int64_t size, const int32_t *chain, int32_t *removed)
{
    if (size < 2) {
        return 0;
    }
    const size_t m = (size_t)size;
    const size_t halos = m * (size_t)num_chains;
    int32_t *slot = malloc((size_t)n * sizeof *slot);
    int32_t *ints = malloc(3 * m * sizeof *ints);        /* order, low, stack */
    int64_t *cursor = malloc(m * sizeof *cursor);
    unsigned char *flags = calloc(3 * m + halos, 1);     /* live, pinned, cut, near */
    int64_t count = NO_MEMORY;
    if (slot == NULL || ints == NULL || cursor == NULL || flags == NULL) {
        goto done;
    }
    unsigned char *live = flags, *pinned = flags + m, *cut = flags + 2 * m;
    unsigned char *near = flags + 3 * m; /* near[i * num_chains + k]: chain[i]
                                            is adjacent to neighbour chain k */
    memset(slot, 0xff, (size_t)n * sizeof *slot);
    for (size_t i = 0; i < m; ++i) {
        slot[chain[i]] = (int32_t)i;
        live[i] = 1;
        for (int64_t p = indptr[chain[i]]; p < indptr[chain[i] + 1]; ++p) {
            for (int64_t k = 0; k < num_chains; ++k) {
                near[i * num_chains + k] |= member[k * n + indices[p]];
            }
        }
    }
    count = 0;
    for (int64_t left = size; left > 1; --left) {
        memset(pinned, 0, m);
        for (int64_t k = 0; k < num_chains; ++k) {
            int64_t touching = 0;
            size_t last = 0;
            for (size_t i = 0; i < m && touching < 2; ++i) {
                if (live[i] && near[i * num_chains + k]) {
                    ++touching;
                    last = i;
                }
            }
            if (touching == 0) {
                goto done; /* no chain node reaches neighbour chain k */
            }
            if (touching == 1) {
                pinned[last] = 1;
            }
        }
        find_cuts(indptr, indices, size, chain, slot, live, cut, ints, ints + m,
                  cursor, ints + 2 * m);
        int64_t first = -1;
        for (size_t i = 0; i < m; ++i) {
            if (live[i] && !pinned[i] && !cut[i]
                && (first < 0 || rank[chain[i]] < rank[chain[first]])) {
                first = (int64_t)i;
            }
        }
        if (first < 0) {
            break;
        }
        live[first] = 0;
        removed[count++] = chain[first];
    }
done:
    free(slot);
    free(ints);
    free(cursor);
    free(flags);
    return count;
}

/* The searches alone: returns the root's index, -1 when no node is
 * reachable from every chain (no total is finite), BAD_INPUT for a
 * negative or NaN cost or noise value, or NO_MEMORY.  pred is exact
 * along every path from the root into a chain.  Every chain holds at
 * least one node, n and num_searches are positive, and amplitude is
 * finite and non-negative. */
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
    return run_searches(n, indptr, indices, cost, num_searches, starts, sources,
                        noise, amplitude, pred, NULL);
}

/* One embed_variable step: the searches as repro_chain_searches runs
 * them, then the walks from the root and the trim of their union.
 * Returns what repro_chain_searches does; on a root, out holds each
 * walk's nodes in walk order and then the removed nodes in removal
 * order, and counts each walk's length and then the number removed. */
int64_t repro_grow_chain(
    int64_t n,
    const int64_t *restrict indptr,
    const int64_t *restrict indices,
    const double *restrict cost,
    int64_t num_searches,
    const int64_t *restrict starts,
    const int64_t *restrict sources,
    const double *restrict noise,
    double amplitude,
    const int32_t *restrict rank,    /* n: each node's place in label order */
    int32_t *restrict out,           /* (num_searches + 1) * n, written */
    int64_t *restrict counts)        /* num_searches + 1, written */
{
    int32_t *pred = NULL;
    int64_t root = run_searches(n, indptr, indices, cost, num_searches, starts,
                                sources, noise, amplitude, NULL, &pred);
    if (root < 0) {
        return root;
    }
    unsigned char *member = calloc((size_t)(num_searches * n), 1);
    int32_t *chain = malloc((size_t)n * sizeof *chain);
    unsigned char *in_chain = calloc((size_t)n, 1);
    if (member == NULL || chain == NULL || in_chain == NULL) {
        root = NO_MEMORY;
        goto done;
    }
    mark_chains(n, num_searches, starts, sources, member);
    int64_t size = 1;
    int64_t written = 0;
    chain[0] = (int32_t)root;
    in_chain[root] = 1;
    for (int64_t k = 0; k < num_searches; ++k) {
        const int64_t begin = written;
        for (int64_t node = root; !member[k * n + node]; node = pred[k * n + node]) {
            out[written++] = (int32_t)node;
            if (!in_chain[node]) {
                in_chain[node] = 1;
                chain[size++] = (int32_t)node;
            }
        }
        counts[k] = written - begin;
    }
    counts[num_searches] = trim(n, indptr, indices, rank, num_searches, member,
                                size, chain, out + written);
    if (counts[num_searches] < 0) {
        root = NO_MEMORY;
    }
done:
    free(pred);
    free(member);
    free(chain);
    free(in_chain);
    return root;
}

/* The trim alone, of a connected chain of size distinct nodes against
 * its neighbours' chains (starts, sources; none when num_chains is 0):
 * writes the removed nodes to removed in removal order and returns how
 * many, or NO_MEMORY. */
int64_t repro_trim_chain(
    int64_t n,
    const int64_t *restrict indptr,
    const int64_t *restrict indices,
    const int32_t *restrict rank,
    int64_t num_chains,
    const int64_t *restrict starts,
    const int64_t *restrict sources,
    int64_t size,
    const int32_t *restrict chain,
    int32_t *restrict removed)       /* size, written */
{
    unsigned char *member = calloc((size_t)(num_chains * n) + 1, 1);
    if (member == NULL) {
        return NO_MEMORY;
    }
    mark_chains(n, num_chains, starts, sources, member);
    const int64_t count = trim(n, indptr, indices, rank, num_chains, member,
                               size, chain, removed);
    free(member);
    return count;
}
