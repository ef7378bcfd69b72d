package cache

import (
	"hash/fnv"
	"strconv"
	"sync"

	"btr/internal/plan"
)

// shardCount is the fixed shard fan-out; a power of two so the FNV hash
// maps with a mask. 16 shards keep lock contention negligible for any
// realistic PlanFor concurrency while staying cheap to iterate for stats.
const shardCount = 16

// Cache is a sharded, concurrency-safe memo of solved plans, keyed by
// content-addressed strings (context prefix + canonical fault key — see
// Engine). There is no invalidation: a key pins everything the plan
// depends on (workload, topology, options, fault set), so entries can
// never go stale, and one Cache may safely back engines for many
// deployments at once. Stored plans are immutable by convention; callers
// must never mutate a returned plan.
type Cache struct {
	shards [shardCount]cacheShard

	ctxMu sync.Mutex
	ctxs  map[string]string // plan.AppendKey context -> its key prefix
}

type cacheShard struct {
	mu sync.RWMutex
	m  map[string]*plan.Plan
}

// New returns an empty cache.
func New() *Cache {
	c := &Cache{ctxs: map[string]string{}}
	for i := range c.shards {
		c.shards[i].m = map[string]*plan.Plan{}
	}
	return c
}

// prefix returns the key prefix standing for one exact planning context
// (plan.AppendKey): one per distinct context, so entries of different
// contexts never collide, and short, so lookup keys stay short.
func (c *Cache) prefix(ctx []byte) string {
	c.ctxMu.Lock()
	defer c.ctxMu.Unlock()
	p, ok := c.ctxs[string(ctx)]
	if !ok {
		p = strconv.Itoa(len(c.ctxs))
		c.ctxs[string(ctx)] = p
	}
	return p
}

func (c *Cache) shard(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()&(shardCount-1)]
}

// Get returns the plan stored under key, if any. Hit/miss accounting
// lives in the Engine (one hit or miss per *resolution*, not per tier
// probe — see Engine.Stats), so Get stays a pure lookup.
func (c *Cache) Get(key string) (*plan.Plan, bool) {
	s := c.shard(key)
	s.mu.RLock()
	p, ok := s.m[key]
	s.mu.RUnlock()
	return p, ok
}

// Put stores a plan under key. First write wins: plans are pure
// functions of their key, so a concurrent duplicate is identical and
// keeping the existing pointer preserves pointer-equality for callers
// that use it as an identity hint.
func (c *Cache) Put(key string, p *plan.Plan) {
	s := c.shard(key)
	s.mu.Lock()
	if _, exists := s.m[key]; !exists {
		s.m[key] = p
	}
	s.mu.Unlock()
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}
