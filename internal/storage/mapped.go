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

// LoadRun fills dst[k] with the word at index w+k*stride, touching the
// page cache exactly as the per-word sequence Load(hdr), Load(w+k*stride)
// for each k in order would: the header's page, then the word's. The words
// that share a page are touched in one step, as TouchRun when that page is
// the header's and as alternating pairs otherwise.
func (m *MappedFile) LoadRun(hdr, w int64, stride int, dst []uint64) {
	hp := hdr / m.pageWords
	for k := 0; k < len(dst); {
		p := (w + int64(k*stride)) / m.pageWords
		// Words k..e-1 lie on page p.
		e := min(len(dst), k+1+int(((p+1)*m.pageWords-1-w-int64(k*stride))/int64(stride)))
		if p == hp {
			m.cache.TouchRun(hp, 2*(e-k), false)
		} else {
			m.cache.touchPairs(hp, p, e-k)
		}
		if stride == 1 {
			copy(dst[k:e], m.words[w+int64(k):])
			k = e
		}
		for ; k < e; k++ {
			dst[k] = m.words[w+int64(k*stride)]
		}
	}
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
