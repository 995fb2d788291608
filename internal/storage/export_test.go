package storage

// Test-only accessors.

// DropAll empties the cache, writing back dirty pages first.
func (c *PageCache) DropAll() {
	c.FlushAll()
	for p := c.head; p != nilPage; {
		s := &c.slots[p]
		next := s.next
		s.state = pageAbsent
		s.prev, s.next = nilPage, nilPage
		p = next
	}
	c.head, c.tail = nilPage, nilPage
	c.resident = 0
}

// WritebackPending returns the number of in-flight writeback batches.
func (d *Device) WritebackPending() int { return d.wb.pending() }
