// Package lru is a mutex-guarded least-recently-used cache whose
// entries each carry a cost against a budget. A kept value is shared
// with every caller that gets or adds it, so callers treat it as
// read-only.
package lru

import (
	"container/list"
	"sync"
)

// Cache keeps values under keys while their costs sum to at most its
// budget. It is safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu     sync.Mutex
	budget int
	used   int
	order  *list.List // front = most recently used; values are *entry[K, V]
	items  map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int
}

// New builds an empty cache under budget.
func New[K comparable, V any](budget int) *Cache[K, V] {
	return &Cache[K, V]{budget: budget, order: list.New(), items: map[K]*list.Element{}}
}

// Get returns the value kept under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add keeps v under k and returns it, unless a value is already kept
// under k: that first value is then marked most recently used and
// returned instead. A new entry evicts the least recently used ones
// until the costs fit the budget, and evicted counts them. A value
// costing more than the whole budget is returned but never kept.
func (c *Cache[K, V]) Add(k K, v V, cost int) (kept V, evicted int) {
	if cost > c.budget {
		return v, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, 0
	}
	c.items[k] = c.order.PushFront(&entry[K, V]{key: k, val: v, cost: cost})
	c.used += cost
	for c.used > c.budget {
		e := c.order.Remove(c.order.Back()).(*entry[K, V])
		delete(c.items, e.key)
		c.used -= e.cost
		evicted++
	}
	return v, evicted
}

// Len reports the number of kept entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Used reports the sum of the kept entries' costs.
func (c *Cache[K, V]) Used() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}
