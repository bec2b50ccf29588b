/* Exact true-LRU replay of the split L1 DTLB + unified STLB hierarchy.
 *
 * Same order of operations as TranslationHierarchy._lookups: the key's
 * parity bit picks the L1 structure, and the STLB is probed and updated
 * only on an L1 miss.  Each structure's state is a sets x ways int64
 * array, MRU-first within a set, -1 marking an empty slot.  Built and
 * loaded by repro/tlb/native.py.
 */
#include <stdint.h>

typedef struct {
    int64_t *slots; /* sets x ways keys */
    int64_t mask;   /* sets - 1 */
    int64_t ways;
} lru_t;

/* Access k: one pass shifts the set down a slot until it meets k (a
 * hit) or an empty slot; k lands at MRU and a full set drops its LRU. */
static int touch(const lru_t *t, int64_t k) {
    int64_t *s = t->slots + ((k >> 1) & t->mask) * t->ways;
    int64_t carry = k;
    for (int64_t i = 0; i < t->ways; i++) {
        int64_t cur = s[i];
        s[i] = carry;
        if (cur == k) return 1;
        if (cur == -1) return 0;
        carry = cur;
    }
    return 0;
}

/* h = {l1_base, l1_huge, l2}; counts are indexed by array id. */
void lru_replay(const lru_t *h, const int64_t *keys, const uint8_t *aids,
                int64_t n, int64_t *l1_misses, int64_t *walks) {
    for (int64_t j = 0; j < n; j++) {
        int64_t k = keys[j];
        if (touch(&h[k & 1], k)) continue;
        l1_misses[aids[j]]++;
        if (!touch(&h[2], k)) walks[aids[j]]++;
    }
}
