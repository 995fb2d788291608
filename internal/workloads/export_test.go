package workloads

// Test-only cache accessors.

// CacheStats reports aggregate hit/miss counts across the three dataset
// caches.
func CacheStats() (hits, misses int64) {
	hits = graphCache.hits.Load() + pointsCache.hits.Load() + rowsCache.hits.Load()
	misses = graphCache.misses.Load() + pointsCache.misses.Load() + rowsCache.misses.Load()
	return hits, misses
}

// ResetCaches drops all memoised datasets and zeroes the counters.
func ResetCaches() {
	graphCache.reset()
	pointsCache.reset()
	rowsCache.reset()
}

func (c *memoCache[K, V]) reset() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
}
