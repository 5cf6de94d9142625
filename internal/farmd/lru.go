package farmd

import (
	"container/list"
	"sync"
)

// lru is the package's one recency list: string keys to weighted values,
// least recently used evicted while the total weight exceeds max. The most
// recent entry always survives, even when it alone exceeds max — eviction
// bounds the tail, it never empties the cache. MemCache (weight 1), the
// bounded DirCache (weight = segment-file bytes), DirCache's read-ahead
// (weight 1 per segment) and the lease handler's instanceCache are views
// of it. It is safe for concurrent use.
type lru[V any] struct {
	mu    sync.Mutex
	max   int64
	total int64
	order *list.List // front = most recently used; values are *lruEntry[V]
	items map[string]*list.Element

	// evicted, when non-nil, is told of every eviction, under mu, so what
	// it undoes (a file, a counter) never races an insertion's accounting.
	evicted func(key string, weight int64)
}

type lruEntry[V any] struct {
	key    string
	val    V
	weight int64
}

func newLRU[V any](max int64, evicted func(key string, weight int64)) *lru[V] {
	return &lru[V]{max: max, order: list.New(), items: map[string]*list.Element{}, evicted: evicted}
}

// get returns key's value and makes it the most recent entry.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put stores val under key at the given weight, replacing any previous
// entry, makes it the most recent and evicts down to max.
func (c *lru[V]) put(key string, val V, weight int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, _ := c.touch(key)
	c.total += weight - ent.weight
	ent.val, ent.weight = val, weight
	c.evict()
}

// getOrPut returns key's value, storing val at the given weight first when
// the key is absent — one lock, so callers racing on an absent key all get
// the value one of them stored. The entry becomes the most recent and the
// cache is evicted down to max.
func (c *lru[V]) getOrPut(key string, val V, weight int64) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, fresh := c.touch(key)
	if fresh {
		c.total += weight
		ent.val, ent.weight = val, weight
	}
	c.evict()
	return ent.val
}

// touch returns key's entry as the most recent one, inserting an empty,
// weightless entry when the key is absent. Caller holds mu.
func (c *lru[V]) touch(key string) (ent *lruEntry[V], fresh bool) {
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry[V]), false
	}
	ent = &lruEntry[V]{key: key}
	c.items[key] = c.order.PushFront(ent)
	return ent, true
}

// evict drops least recently used entries until the cache fits max or only
// the most recent entry is left. Caller holds mu.
func (c *lru[V]) evict() {
	for c.total > c.max && c.order.Len() > 1 {
		oldest := c.order.Remove(c.order.Back()).(*lruEntry[V])
		delete(c.items, oldest.key)
		c.total -= oldest.weight
		if c.evicted != nil {
			c.evicted(oldest.key, oldest.weight)
		}
	}
}

// remove drops key's entry without reporting an eviction.
func (c *lru[V]) remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.total -= c.order.Remove(el).(*lruEntry[V]).weight
		delete(c.items, key)
	}
}

// size returns the entry count and the total weight.
func (c *lru[V]) size() (entries int, weight int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items), c.total
}
