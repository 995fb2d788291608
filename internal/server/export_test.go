package server

// Test-only accessors.

// Count returns the number of recorded samples.
func (h *Hist) Count() int64 { return h.n }
