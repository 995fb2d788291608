package storage

// ByteStore is an off-heap blob store over a device: the destination of
// serialized partitions in the Spark-SD and Giraph-OOC baselines. Blobs are
// written sequentially; reads go through a byte-budgeted LRU standing in
// for the share of the kernel page cache the blobs enjoy.
type ByteStore struct {
	dev        *Device
	pageSize   int
	cacheBytes int64 // 0 = unbounded

	blobs  map[BlobID]*blob
	nextID BlobID

	// LRU of cached blobs.
	head, tail  *blob
	cachedBytes int64

	// Counters.
	Hits   int64
	Misses int64
	Puts   int64
}

// BlobID names a stored blob.
type BlobID int64

type blob struct {
	id         BlobID
	size       int64
	cached     bool
	prev, next *blob
}

// NewByteStore builds a store over dev whose reads are cached in up to
// cacheBytes of DRAM (0 = unbounded).
func NewByteStore(dev *Device, cacheBytes int64) *ByteStore {
	return &ByteStore{
		dev:        dev,
		pageSize:   DefaultPageSize,
		cacheBytes: cacheBytes,
		blobs:      make(map[BlobID]*blob),
		nextID:     1,
	}
}

// Put stores a blob of size bytes, charging a sequential device write, and
// returns its id. The freshly written blob is cached.
func (s *ByteStore) Put(size int64) BlobID {
	s.Puts++
	s.dev.WriteSeq(size, s.pageSize)
	b := &blob{id: s.nextID, size: size}
	s.nextID++
	s.blobs[b.id] = b
	s.insertCached(b)
	return b.id
}

// Get charges for reading the blob; a cached blob costs nothing extra.
// It returns the blob size.
func (s *ByteStore) Get(id BlobID) int64 {
	b, ok := s.blobs[id]
	if !ok {
		return 0
	}
	if b.cached {
		s.Hits++
		s.moveToFront(b)
		return b.size
	}
	s.Misses++
	s.dev.ReadSeq(b.size, s.pageSize)
	s.insertCached(b)
	return b.size
}

// Delete removes a blob (space reclaimed instantly; SSD TRIM is free).
func (s *ByteStore) Delete(id BlobID) {
	b, ok := s.blobs[id]
	if !ok {
		return
	}
	if b.cached {
		s.unlink(b)
		s.cachedBytes -= b.size
	}
	delete(s.blobs, id)
}

// TotalBytes returns the total bytes stored across all blobs.
func (s *ByteStore) TotalBytes() int64 {
	var t int64
	for _, b := range s.blobs { // order-insensitive: a sum.
		t += b.size
	}
	return t
}

func (s *ByteStore) insertCached(b *blob) {
	if b.cached {
		s.moveToFront(b)
		return
	}
	b.cached = true
	s.cachedBytes += b.size
	s.pushFront(b)
	if s.cacheBytes > 0 {
		for s.cachedBytes > s.cacheBytes && s.tail != nil && s.tail != b {
			victim := s.tail
			victim.cached = false
			s.cachedBytes -= victim.size
			s.unlink(victim)
		}
	}
}

func (s *ByteStore) pushFront(b *blob) {
	b.prev = nil
	b.next = s.head
	if s.head != nil {
		s.head.prev = b
	}
	s.head = b
	if s.tail == nil {
		s.tail = b
	}
}

func (s *ByteStore) unlink(b *blob) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		s.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		s.tail = b.prev
	}
	b.prev, b.next = nil, nil
}

func (s *ByteStore) moveToFront(b *blob) {
	if s.head == b {
		return
	}
	s.unlink(b)
	s.pushFront(b)
}
