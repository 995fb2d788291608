// Package vm defines the simulated managed-runtime object model the
// TeraHeap reproduction is built on: a word-addressed virtual address
// space, Java-style object headers extended with the paper's 8-byte label
// field (§3.2), class descriptors, bump-pointer spaces, and handle-based
// GC roots.
//
// Everything is expressed in terms of 8-byte words and byte addresses so
// that the garbage collector, card tables, and TeraHeap's region machinery
// operate exactly the way the paper describes them over OpenJDK.
package vm

import "fmt"

// Addr is a byte address in the simulated virtual address space. The zero
// value is the null reference. All object addresses are 8-byte aligned.
type Addr uint64

// NullAddr is the null reference.
const NullAddr Addr = 0

// WordSize is the size of a heap word in bytes.
const WordSize = 8

// IsNull reports whether a is the null reference.
func (a Addr) IsNull() bool { return a == NullAddr }

// Word returns the word index of a relative to base. Addresses are always
// word-aligned and at or above their base, so the divide compiles to an
// unsigned shift (signed division by 8 costs extra sign-fixup instructions
// on this hot path).
func (a Addr) Word(base Addr) int64 { return int64((a - base) >> 3) }

// String renders the address in hex.
func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// Canonical base addresses for the two heaps. H2 sits far above H1 so a
// single comparison implements the paper's "reference range check" used by
// the post-write barriers and the GC fencing (§4).
const (
	H1Base Addr = 0x0000_0001_0000_0000 // 4 GB
	H2Base Addr = 0x0000_0100_0000_0000 // 1 TB
)

// InH2 is the reference range check: it reports whether a points into the
// second heap. It is the single branch the paper adds to the interpreter
// and JIT post-write barriers.
func InH2(a Addr) bool { return a >= H2Base }

// Memory is word-granularity access to a range of the address space.
type Memory interface {
	Load(a Addr) uint64
	Store(a Addr, v uint64)
}

// RAM is DRAM-backed memory: a plain Go slice with no simulated access
// cost (DRAM latency is folded into the mutator compute constants).
type RAM struct {
	base  Addr
	words []uint64
}

// NewRAM allocates sizeBytes of DRAM at base.
func NewRAM(base Addr, sizeBytes int64) *RAM {
	return &RAM{base: base, words: make([]uint64, sizeBytes/WordSize)}
}

// SizeBytes returns the mapped size.
func (r *RAM) SizeBytes() int64 { return int64(len(r.words)) * WordSize }

// Load reads the word at a.
func (r *RAM) Load(a Addr) uint64 { return r.words[(a-r.base)>>3] }

// Store writes the word at a.
func (r *RAM) Store(a Addr, v uint64) { r.words[(a-r.base)>>3] = v }

// Peeker is optionally implemented by Memory backends that can read a
// word without charging simulated cost. The invariant verifier reads the
// whole heap through Peek so that enabling verification never perturbs
// the deterministic clock.
type Peeker interface {
	Peek(a Addr) uint64
}

// Mapping binds an address range to a Memory implementation.
type Mapping struct {
	Start, End Addr // [Start, End)
	Mem        Memory
}

// AddressSpace routes loads and stores to the mapping covering each
// address. Two windows make the common cases one range compare each:
//
//   - the DRAM window is the RAM mapping that starts at its own base (all
//     of H1 under PS and G1, the DRAM prefix under Panthera). DRAM charges
//     nothing, so a word inside it is read or written straight from the
//     backing slice with no interface call;
//   - the H2 window is the mapping that starts at H2Base. It still calls
//     its Memory for every word, so each H2 access reaches the mapped file
//     and touches its page cache exactly as a scan would.
//
// Any other address falls through to a linear scan of the mappings.
type AddressSpace struct {
	ramBase  Addr
	ramWords []uint64
	h2       Mapping
	mappings []Mapping
}

// Map registers a mapping. Ranges must not overlap.
func (as *AddressSpace) Map(start, end Addr, mem Memory) {
	as.mappings = append(as.mappings, Mapping{Start: start, End: end, Mem: mem})
	if r, ok := mem.(*RAM); ok && r.base == start && as.ramWords == nil {
		n := min(uint64(end-start)>>3, uint64(len(r.words)))
		as.ramBase, as.ramWords = start, r.words[:n:n]
	}
	if start == H2Base {
		as.h2 = as.mappings[len(as.mappings)-1]
	}
}

// Resolve returns the memory covering a, or nil.
func (as *AddressSpace) Resolve(a Addr) Memory {
	for i := range as.mappings {
		m := &as.mappings[i]
		if a >= m.Start && a < m.End {
			return m.Mem
		}
	}
	return nil
}

// ram returns the DRAM-window slice holding the n words starting at a, and
// whether all of them lie inside the window.
func (as *AddressSpace) ram(a Addr, n int) ([]uint64, bool) {
	i := uint64(a-as.ramBase) >> 3
	if i > uint64(len(as.ramWords)) || uint64(n) > uint64(len(as.ramWords))-i {
		return nil, false
	}
	return as.ramWords[i : i+uint64(n)], true
}

// slow resolves an address outside the DRAM window: the H2 window, then
// the scan. It panics on unmapped addresses: an unmapped access is a
// simulator bug, not a recoverable condition.
func (as *AddressSpace) slow(a Addr, op string) Memory {
	if a >= as.h2.Start && a < as.h2.End {
		return as.h2.Mem
	}
	if m := as.Resolve(a); m != nil {
		return m
	}
	panic(fmt.Sprintf("vm: %s unmapped address %v", op, a))
}

// Load reads the word at a. It panics on unmapped addresses.
func (as *AddressSpace) Load(a Addr) uint64 {
	if i := uint64(a-as.ramBase) >> 3; i < uint64(len(as.ramWords)) {
		return as.ramWords[i]
	}
	return as.loadSlow(a)
}

func (as *AddressSpace) loadSlow(a Addr) uint64 { return as.slow(a, "load from").Load(a) }

// Peek reads the word at a without charging simulated cost: backends
// implementing Peeker are read directly, anything else falls back to Load
// (RAM loads are already free). Invariant checks and tests only.
func (as *AddressSpace) Peek(a Addr) uint64 {
	if i := uint64(a-as.ramBase) >> 3; i < uint64(len(as.ramWords)) {
		return as.ramWords[i]
	}
	m := as.slow(a, "peek of")
	if p, ok := m.(Peeker); ok {
		return p.Peek(a)
	}
	return m.Load(a)
}

// Store writes the word at a.
func (as *AddressSpace) Store(a Addr, v uint64) {
	if i := uint64(a-as.ramBase) >> 3; i < uint64(len(as.ramWords)) {
		as.ramWords[i] = v
		return
	}
	as.storeSlow(a, v)
}

func (as *AddressSpace) storeSlow(a Addr, v uint64) { as.slow(a, "store to").Store(a, v) }
