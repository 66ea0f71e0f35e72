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
 * Each search has its own queue, and the searches advance in lockstep:
 * the next pop is the earliest head by (distance, larger node first,
 * search), and one search keeps popping while its head stays ahead of
 * every other search's.  Costs are non-negative node weights, so a
 * node's first relaxation is final and a search pushes each node at
 * most once.  A queue keeps the entries at its two smallest level
 * distances as node bitsets, popped largest node first, and every other
 * entry in a binary heap of at most n entries.  The levels follow the
 * pops: level 0 sits at the distance last popped and level 1 one
 * smallest cost above it, where a push through a node of the smallest
 * cost -- a free qubit in the embedder -- lands; a push at either
 * distance joins its bitset, and any other push goes to the heap.  Since
 * one search never holds two entries with the same distance and node,
 * the order is strict and the queue pops exactly the heap's sequence.
 *
 * A node's total is known once every search has popped it.  Until then
 * its total is at least its bound: its cost, plus each search's distance
 * where that search has popped it or else that search's next distance,
 * plus amplitude * noise, summed in the totals' order.  Every term is
 * non-negative and rounding keeps such a sum monotone, so no total is
 * below its bound.  A node whose bound exceeds the best total, or equals
 * it at a larger index than the root's, cannot be the root, and it stays
 * beaten: next distances only rise and the best total only falls.  The
 * loop stops once every node that is not known is beaten.  The nodes no
 * search has popped share one bound, the smallest cost plus every next
 * distance, checked before each pop; the partly known ones wait in a
 * list that is rescanned, and pruned, at most once per SCAN_EVERY pops.
 * No distance above the best total is pushed either: no node on a path
 * from the root into a chain lies that far out.
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

/* A queue entry as two words: hi holds the distance's bits, and lo the
 * node's complement above the search.  Pushed distances are finite and
 * non-negative, so their bits order as the doubles do, and one unsigned
 * comparison of (hi, lo) gives the queue order: distance ascending, then
 * the larger node, then the earlier search. */
typedef struct {
    uint64_t hi;
    uint64_t lo;
} entry;

/* The head of an empty queue: the bits of INFINITY exceed those of
 * every finite distance, so it comes after every entry. */
static const entry NO_ENTRY = {UINT64_C(0x7ff0000000000000), UINT64_MAX};

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

static int64_t entry_node(const entry *e)
{
    return (uint32_t)~(uint32_t)(e->lo >> 32);
}

/* (a.hi, a.lo) < (b.hi, b.lo) without a branch: the borrow of the low
 * words joins the high ones.  b.hi + 1 cannot wrap, as the bits of a
 * non-negative double are below 2**63. */
static int earlier(const entry *a, const entry *b)
{
    return a->hi < b->hi + (a->lo < b->lo);
}

static void heap_push(entry *heap, int64_t *size, entry item)
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

static void heap_pop(entry *heap, int64_t *size)
{
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
}

/* The index of the highest set bit of a non-zero word. */
static int64_t highest_bit(uint64_t word)
{
#if defined(__GNUC__)
    return 63 - __builtin_clzll(word);
#else
    int64_t bit = 0;
    while (word >>= 1) {
        ++bit;
    }
    return bit;
#endif
}

/* A search's pending nodes at one distance, as a bitset. */
typedef struct {
    double dist;
    uint64_t *bits;
    int64_t count;
    int64_t top;     /* while count > 0, no set bit lies above this word */
} level;

static void level_add(level *l, int64_t node)
{
    const int64_t word = node >> 6;
    l->bits[word] |= (uint64_t)1 << (node & 63);
    if (l->count++ == 0 || word > l->top) {
        l->top = word;
    }
}

/* The largest node of a non-empty level. */
static int64_t level_largest(level *l)
{
    while (l->bits[l->top] == 0) {
        --l->top;
    }
    return l->top * 64 + highest_bit(l->bits[l->top]);
}

/* One search's pending entries.  levels[0].dist <= levels[1].dist, so
 * level 0's entries come before level 1's, and level 1 is empty whenever
 * the two distances are equal: a push checks level 0 first. */
typedef struct {
    level levels[2];
    entry *heap;     /* n entries */
    int64_t size;
    entry head;      /* the earliest entry, or NO_ENTRY */
    int from;        /* where head sits: level 0 or 1, HEAP or NOWHERE */
} queue;

#define HEAP 2
#define NOWHERE (-1)

static void queue_push(queue *q, double dist, int64_t node, int64_t search)
{
    if (dist == q->levels[0].dist) {
        level_add(&q->levels[0], node);
    } else if (dist == q->levels[1].dist) {
        level_add(&q->levels[1], node);
    } else {
        heap_push(q->heap, &q->size, make_entry(dist, node, search));
    }
}

/* Points head at the earliest of the heap's top and the first non-empty
 * level's largest node. */
static void find_head(queue *q, int64_t search)
{
    q->head = NO_ENTRY;
    q->from = NOWHERE;
    if (q->size > 0) {
        q->head = q->heap[0];
        q->from = HEAP;
    }
    for (int j = 0; j < 2; ++j) {
        level *l = &q->levels[j];
        if (l->count > 0) {
            const entry e = make_entry(l->dist, level_largest(l), search);
            if (earlier(&e, &q->head)) {
                q->head = e;
                q->from = j;
            }
            break;
        }
    }
}

/* Removes the head, whose distance du becomes level 0's once level 0 is
 * empty: level 1 moves down when it sits at du, or else stays, and a
 * level 1 that is empty or moved down is placed at du + cheapest. */
static void queue_pop(queue *q, double cheapest)
{
    const double du = entry_dist(&q->head);
    if (q->from == HEAP) {
        heap_pop(q->heap, &q->size);
    } else {
        level *l = &q->levels[q->from];
        const int64_t node = entry_node(&q->head);
        l->bits[node >> 6] &= ~((uint64_t)1 << (node & 63));
        --l->count;
    }
    level *levels = q->levels;
    if (levels[0].count == 0 && du != levels[0].dist) {
        if (levels[1].count == 0 || du == levels[1].dist) {
            const level emptied = levels[0];
            levels[0] = levels[1];
            levels[1] = emptied;
            levels[1].dist = du + cheapest;
        }
        levels[0].dist = du;
    }
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
    int32_t *known;          /* n, zeroed: how many searches popped each node */
    queue *queues;           /* num_searches */
    entry *heaps;            /* (num_searches, n) */
    uint64_t *bits;          /* (num_searches, 2, words), zeroed */
    int32_t *partial;        /* n: nodes some but not every search popped */
} searches;

static double next_dist(const searches *s, int64_t k)
{
    return entry_dist(&s->queues[k].head);
}

/* Keeps the listed partly known nodes that are still neither known nor
 * beaten; returns how many it kept.  A search's term of a bound is its
 * distance where it has popped the node and else its next distance,
 * which is the smaller of the two: a popped node lies at or below the
 * next distance, and a pending or unreached one at or above it. */
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
            const double dist = s->dist[k * n + u];
            const double next = next_dist(s, k);
            bound = bound + (dist < next ? dist : next);
        }
        bound = bound + s->amplitude * s->noise[u];
        if (!(bound > best || (bound == best && u > root))) {
            s->partial[kept++] = u;
        }
    }
    return kept;
}

/* The bound of every node no search has popped: the smallest cost plus
 * every next distance. */
static double unseen_bound(const searches *s, double cheapest)
{
    double bound = cheapest;
    for (int64_t k = 0; k < s->num_searches; ++k) {
        bound = bound + next_dist(s, k);
    }
    return bound;
}

/* Runs the searches from each chain (starts, sources) until the root is
 * certain; returns it, -1 when no total is finite, or BAD_INPUT. */
static int64_t run(searches *s, const int64_t *starts, const int64_t *sources)
{
    const int64_t n = s->n;
    const int64_t num_searches = s->num_searches;
    const int64_t words = (n + 63) / 64;
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
        queue *q = &s->queues[k];
        for (int j = 0; j < 2; ++j) {
            q->levels[j].bits = s->bits + (2 * k + j) * words;
            q->levels[j].count = 0;
            q->levels[j].top = 0;
        }
        q->levels[0].dist = 0.0;
        q->levels[1].dist = cheapest;
        q->heap = s->heaps + k * n;
        q->size = 0;
        for (int64_t p = starts[k]; p < starts[k + 1]; ++p) {
            const int64_t source = sources[p];
            if (s->dist[k * n + source] != 0.0) {
                s->dist[k * n + source] = 0.0;
                queue_push(q, 0.0, source, k);
            }
        }
        find_head(q, k);
    }
    double best = INFINITY;
    int64_t root = -1;
    int64_t num_partial = 0;
    int64_t pops = 0;
    int64_t scan_at = 0;
    for (;;) {
        /* The search to pop next, and the earliest head of the others. */
        int64_t k = 0;
        entry runner_up = NO_ENTRY;
        for (int64_t j = 1; j < num_searches; ++j) {
            const entry *head = &s->queues[j].head;
            if (earlier(head, &s->queues[k].head)) {
                runner_up = s->queues[k].head;
                k = j;
            } else if (earlier(head, &runner_up)) {
                runner_up = *head;
            }
        }
        queue *q = &s->queues[k];
        double unseen = unseen_bound(s, cheapest);
        /* Search k pops until another search's head comes first. */
        do {
            const double du = entry_dist(&q->head);
            if (q->from == NOWHERE || du > best) {
                return root; /* every unknown node lies beyond the best total */
            }
            if ((unseen > best || (unseen == best && root < 0))
                && (num_partial == 0 || pops >= scan_at)) {
                num_partial = rescan(s, num_partial, best, root);
                if (num_partial == 0) {
                    return root;
                }
                scan_at = pops + SCAN_EVERY;
            }
            const int64_t u = entry_node(&q->head);
            queue_pop(q, cheapest);
            ++pops;
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
                    queue_push(q, next, v, k);
                }
            }
            find_head(q, k);
            if (entry_dist(&q->head) != du) {
                unseen = unseen_bound(s, cheapest);
            }
        } while (earlier(&q->head, &runner_up));
    }
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
    const size_t words = (size_t)((n + 63) / 64);
    searches s = {
        .n = n, .indptr = indptr, .indices = indices, .cost = cost,
        .num_searches = num_searches, .noise = noise, .amplitude = amplitude,
        .pred = pred != NULL ? pred : malloc(cells * sizeof(int32_t)),
        .dist = malloc(cells * sizeof(double)),
        .known = calloc((size_t)n, sizeof(int32_t)),
        .queues = malloc((size_t)num_searches * sizeof(queue)),
        .heaps = malloc(cells * sizeof(entry)),
        .bits = calloc(2 * (size_t)num_searches * words, sizeof(uint64_t)),
        .partial = malloc((size_t)n * sizeof(int32_t)),
    };
    int64_t root = NO_MEMORY;
    if (s.pred != NULL && s.dist != NULL && s.known != NULL
        && s.queues != NULL && s.heaps != NULL && s.bits != NULL
        && s.partial != NULL) {
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
    free(s.known);
    free(s.queues);
    free(s.heaps);
    free(s.bits);
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

/* The floats random.random() draws, from the bytes of Python's
 * getrandbits(64 * n).to_bytes(8 * n, "little"): each float takes two
 * little-endian 32-bit words a and b, in that order, as
 * ((a >> 5) * 2**26 + (b >> 6)) / 2**53, every step exact. */
void repro_random_floats(
    int64_t n,
    const unsigned char *restrict bytes, /* 8 * n */
    double *restrict out)                /* n, written */
{
    for (int64_t i = 0; i < n; ++i) {
        const unsigned char *p = bytes + 8 * i;
        const uint32_t a = (uint32_t)p[0] | (uint32_t)p[1] << 8
                           | (uint32_t)p[2] << 16 | (uint32_t)p[3] << 24;
        const uint32_t b = (uint32_t)p[4] | (uint32_t)p[5] << 8
                           | (uint32_t)p[6] << 16 | (uint32_t)p[7] << 24;
        out[i] = ((double)(a >> 5) * 67108864.0 + (double)(b >> 6)) / 9007199254740992.0;
    }
}
