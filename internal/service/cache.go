package service

import (
	"container/list"
	"sync"
)

// lru is the service's one mutex-guarded LRU, behind its three caches: the
// design-property cache keyed by the canonicalized design
// (DesignRequest.Key), the hash → design registry behind
// /v1/designs/{hash}/shardplan, and the (hash, split, shards) → plan cache.
// Property computation for the paper's larger designs takes real work (the
// decetta-scale design of Figure 7 takes a median of 14.6 ms on a 2-vCPU VM,
// BENCH_fig7.json), so repeated queries for the same design — the common
// case for a service fronting a catalog of named graphs — must be O(1).
// Eviction is safe by construction: properties and plans are pure functions
// of the design and are rebuilt on a miss, and a hash is re-registered by
// re-POSTing the design, so the caches trade only latency, never
// correctness.
type lru[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

// newLRU returns an LRU holding up to capacity entries; capacity < 1
// disables it (every get misses, puts are dropped).
func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the value cached for key, promoting the entry to most
// recently used.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put stores v for key, evicting the least recently used entry when the
// cache is full.
func (c *lru[V]) put(key string, v V) {
	if c.cap < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: v})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
	}
}

// len returns the current entry count.
func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
