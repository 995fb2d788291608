package storage

// MappedFile simulates a file-backed memory mapping: a word-addressable
// array whose pages live on a device and are cached in DRAM by a PageCache.
// TeraHeap maps H2 through this (the paper uses mmap or HugeMap), and the
// Spark-MO baseline maps its entire heap through one (NVM memory mode).
type MappedFile struct {
	dev   *Device
	cache *PageCache
	words []uint64
	// pageWords is the page size in 8-byte words.
	pageWords int64
}

// DefaultPageSize is the base page size (4 KB).
const DefaultPageSize = 4 * KB

// NewMappedFile maps sizeBytes of device-backed memory with the given page
// size and DRAM cache budget (in bytes; 0 = unbounded).
func NewMappedFile(dev *Device, sizeBytes int64, pageSize int, cacheBytes int64) *MappedFile {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	capacityPages := 0
	if cacheBytes > 0 {
		capacityPages = int(cacheBytes / int64(pageSize))
		if capacityPages < 1 {
			capacityPages = 1
		}
	}
	return &MappedFile{
		dev:       dev,
		cache:     NewPageCache(dev, pageSize, capacityPages),
		words:     make([]uint64, sizeBytes/8),
		pageWords: int64(pageSize) / 8,
	}
}

// SizeWords returns the mapping size in 8-byte words.
func (m *MappedFile) SizeWords() int64 { return int64(len(m.words)) }

// Device returns the backing device.
func (m *MappedFile) Device() *Device { return m.dev }

// Cache returns the simulated page cache.
func (m *MappedFile) Cache() *PageCache { return m.cache }

// Load reads the word at index w, faulting its page in if necessary.
func (m *MappedFile) Load(w int64) uint64 {
	m.cache.Touch(w/m.pageWords, false)
	return m.words[w]
}

// Store writes the word at index w, dirtying its page.
func (m *MappedFile) Store(w int64, v uint64) {
	m.cache.Touch(w/m.pageWords, true)
	m.words[w] = v
}

// StageWords copies src into the mapping at word index w without any
// device charge, marking the touched pages resident and clean. It is the
// staging half of TeraHeap's promotion buffers: the cost is charged once
// per buffer flush via ChargeAsyncWrite.
func (m *MappedFile) StageWords(w int64, src []uint64) {
	copy(m.words[w:], src)
	first := w / m.pageWords
	last := (w + int64(len(src)) - 1) / m.pageWords
	for p := first; p <= last; p++ {
		if !m.cache.Resident(p) {
			m.cache.insertClean(p)
		}
	}
}

// ChargeAsyncWrite bills one batched asynchronous device write of n bytes
// (a promotion-buffer flush).
func (m *MappedFile) ChargeAsyncWrite(n int64) {
	m.dev.WriteAsync(n, m.cache.PageSize())
}

// BulkStore stages src at word index w and charges its asynchronous write
// immediately; convenience for single-shot batched writes.
func (m *MappedFile) BulkStore(w int64, src []uint64) {
	m.StageWords(w, src)
	m.ChargeAsyncWrite(int64(len(src)) * 8)
}

// insertClean adds a page as resident and clean without device traffic.
func (c *PageCache) insertClean(page int64) {
	s := c.slot(page)
	if s.state != pageAbsent {
		return
	}
	s.state = pageClean
	c.pushFront(int32(page))
	c.resident++
	c.evictIfNeeded()
}

// InvalidateWords drops cached pages covering [w, w+n) without writeback;
// used when whole regions are reclaimed.
func (m *MappedFile) InvalidateWords(w, n int64) {
	if n <= 0 {
		return
	}
	m.cache.InvalidateRange(w/m.pageWords, (w+n-1)/m.pageWords)
}

// PeekWord reads the word without any fault simulation or cost; for use by
// invariant checks and tests only.
func (m *MappedFile) PeekWord(w int64) uint64 { return m.words[w] }

// SumWords folds mix over the stored words [w, w+n) and returns the XOR of
// the results, without touching the page cache or charging simulated time.
// This is the scrubber's read path: it models the background media scan a
// real device performs off the host's clock, so enabling scrubbing cannot
// perturb a run's simulated results.
func (m *MappedFile) SumWords(w, n int64, mix func(word int64, v uint64) uint64) uint64 {
	var sum uint64
	for i, v := range m.words[w : w+n] {
		sum ^= mix(w+int64(i), v)
	}
	return sum
}

// ZeroWords clears [w, w+n) without device cost: used when whole regions
// are reclaimed, so that stale bytes from a region's previous life are
// never mistaken for object headers after reuse.
func (m *MappedFile) ZeroWords(w, n int64) {
	clear(m.words[w : w+n])
}
