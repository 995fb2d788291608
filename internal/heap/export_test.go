package heap

// Test-only accessors.

// CountDirty returns the number of dirty cards.
func (t *CardTable) CountDirty() int {
	n := 0
	for _, s := range t.cards {
		if s == CardDirty {
			n++
		}
	}
	return n
}
