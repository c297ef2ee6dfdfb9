package algebra

import (
	"container/list"
	"strings"
	"sync"

	"repro/internal/tab"
)

// LRU is a bounded, thread-safe map that evicts its least recently used
// entry to admit one beyond its bound. It is the repository's one bounded
// map: the result cache (ResultCache), the mediator's per-catalog plan map
// and the wire client's plan-encoding memo instantiate it. A nil *LRU holds
// nothing and stores nothing.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recently used
	byKey map[K]*list.Element
}

type lruSlot[K comparable, V any] struct {
	key K
	v   V
}

// NewLRU returns a map bounded to the given number of entries; a bound
// below 1 returns nil, which holds nothing.
func NewLRU[K comparable, V any](entries int) *LRU[K, V] {
	if entries < 1 {
		return nil
	}
	return &LRU[K, V]{cap: entries, lru: list.New(), byKey: map[K]*list.Element{}}
}

// Get returns the value stored under key, marking it most recently used.
func (c *LRU[K, V]) Get(key K) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return v, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*lruSlot[K, V]).v, true
}

// Put stores v under key, reporting whether an older entry was evicted to
// make room.
func (c *LRU[K, V]) Put(key K, v V) (evicted bool) {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*lruSlot[K, V]).v = v
		c.lru.MoveToFront(el)
		return false
	}
	c.byKey[key] = c.lru.PushFront(&lruSlot[K, V]{key: key, v: v})
	if c.lru.Len() <= c.cap {
		return false
	}
	oldest := c.lru.Back()
	c.lru.Remove(oldest)
	delete(c.byKey, oldest.Value.(*lruSlot[K, V]).key)
	return true
}

// Len reports the number of stored entries.
func (c *LRU[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// ResultCache is the bounded LRU of wrapper results. The mediator installs
// one shared instance so repeated pushes of the same subplan under the same
// parameter bindings — across the rows of one DJoin or across whole queries
// — are answered locally instead of paying another source round trip. Keys
// combine the source name, the canonical plan encoding and the binding
// values (see CacheKey); cached tabs are shared, never copied, relying on
// the repo-wide convention that result rows are treated as immutable.
//
// The cache assumes quiescent sources (the paper's read-only integration
// scenario): it has no invalidation beyond LRU eviction.
type ResultCache = LRU[string, *tab.Tab]

// NewResultCache returns a result cache bounded to the given number of
// entries; a bound below 1 disables caching (nil is returned, and a nil
// *ResultCache is safe to use everywhere).
func NewResultCache(entries int) *ResultCache { return NewLRU[string, *tab.Tab](entries) }

// cached is the one result-cache probe of a source call: a hit or a miss
// under key is counted. The empty key (no cache, or a plan that is never
// cached) probes nothing.
func (c *Context) cached(key string) (*tab.Tab, bool) {
	if key == "" {
		return nil, false
	}
	t, ok := c.Cache.Get(key)
	if ok {
		c.count(Stats{CacheHits: 1})
	} else {
		c.count(Stats{CacheMisses: 1})
	}
	return t, ok
}

// fill is the one result-cache fill of a source call: t is stored under key,
// and the entry it displaces, if any, is counted. The empty key stores
// nothing.
func (c *Context) fill(key string, t *tab.Tab) {
	if key != "" && c.Cache.Put(key, t) {
		c.count(Stats{CacheEvictions: 1})
	}
}

// CacheKey builds a cache key from a source name, a canonical plan encoding
// and a parameter-binding fragment (see ParamsKey). The components are
// length-separated by construction: source names contain no NUL and the
// plan encoding is XML.
func CacheKey(source, planEnc, paramsKey string) string {
	return source + "\x00" + planEnc + "\x00" + paramsKey
}

// ParamsKey renders the values of the given variables (the plan's free
// variables, sorted) under the binding lookup as a canonical fragment for
// CacheKey. Absent variables are skipped — by construction a variable is
// either bound for every row of a DJoin batch or for none, so absence never
// aliases a binding.
func ParamsKey(vars []string, params map[string]tab.Cell) string {
	var b strings.Builder
	for _, v := range vars {
		c, ok := params[v]
		if !ok {
			continue
		}
		b.WriteString(v)
		b.WriteByte('=')
		b.WriteString(c.Key())
		b.WriteByte('\x00')
	}
	return b.String()
}
