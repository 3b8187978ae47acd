package partserver

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"finegrain/internal/sparse"
)

// keyFromHash is the content address of a decomposition request: the
// SHA-256 of the matrix's canonical content hash combined with the
// partitioning parameters that determine the result. Workers is
// deliberately excluded — the partitioner guarantees byte-identical
// output for any worker count given the same seed, so requests that
// differ only in concurrency are the same decomposition. The key is
// hex, which makes it directly usable as a store filename and a ring
// routing key.
//
// Taking the matrix as a digest rather than a *CSR is what lets the
// streaming ingest path compute the key before the matrix is even
// assembled (mmio.StreamOptions.OnContentHash).
func keyFromHash(sum [32]byte, model string, k int, eps float64, seed uint64) string {
	h := sha256.New()
	h.Write(sum[:])
	fmt.Fprintf(h, "|model=%s|k=%d|eps=%g|seed=%d", model, k, eps, seed)
	return hex.EncodeToString(h.Sum(nil))
}

// cacheKey computes keyFromHash for an assembled matrix.
func cacheKey(a *sparse.CSR, model string, k int, eps float64, seed uint64) string {
	return keyFromHash(a.ContentHash(), model, k, eps, seed)
}

// decompCache is a thread-safe LRU over computed decompositions. Hitting
// is O(1); hashing the matrix (done by the caller) is O(nnz), which is
// orders of magnitude cheaper than the multilevel partition it saves.
type decompCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recent
	items map[string]*list.Element

	// onEvict runs outside the cache lock for every result dropped from
	// the cache — evicted for space or replaced by a refresh. The server
	// uses it to release the result's compiled SpMV plan memory.
	onEvict func(*jobResult)
}

type cacheEntry struct {
	key string
	res *jobResult
}

func newDecompCache(max int, onEvict func(*jobResult)) *decompCache {
	if max < 1 {
		max = 1
	}
	return &decompCache{max: max, ll: list.New(), items: make(map[string]*list.Element), onEvict: onEvict}
}

func (c *decompCache) get(key string) (*jobResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// add inserts (or refreshes) key and returns how many entries were
// evicted to stay within the bound.
func (c *decompCache) add(key string, res *jobResult) int {
	var dropped []*jobResult
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		if ent.res != res {
			dropped = append(dropped, ent.res)
			ent.res = res
		}
		c.mu.Unlock()
		c.runEvict(dropped)
		return 0
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	evicted := 0
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		ent := back.Value.(*cacheEntry)
		delete(c.items, ent.key)
		dropped = append(dropped, ent.res)
		evicted++
	}
	c.mu.Unlock()
	c.runEvict(dropped)
	return evicted
}

func (c *decompCache) runEvict(dropped []*jobResult) {
	if c.onEvict == nil {
		return
	}
	for _, res := range dropped {
		c.onEvict(res)
	}
}

func (c *decompCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
