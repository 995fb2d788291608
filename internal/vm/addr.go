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

// Load reads the word at a.
func (r *RAM) Load(a Addr) uint64 { return r.words[(a-r.base)>>3] }

// Store writes the word at a.
func (r *RAM) Store(a Addr, v uint64) { r.words[(a-r.base)>>3] = v }

// Words returns the backing words; word i holds the word at base+8i.
func (r *RAM) Words() []uint64 { return r.words }

// Peeker is optionally implemented by Memory backends that can read a
// word without charging simulated cost. The invariant verifier reads the
// whole heap through Peek so that enabling verification never perturbs
// the deterministic clock.
type Peeker interface {
	Peek(a Addr) uint64
}

// RunLoader is optionally implemented by Memory backends that can read
// an object's primitive run in one call. LoadRun(hdr, a, stride, dst) must
// equal, for each k in order, Load(hdr) followed by dst[k] = Load(a +
// k*stride words): the sequence a PrimAt loop issues, since every PrimAt
// reads the shape word before its field.
type RunLoader interface {
	LoadRun(hdr, a Addr, stride int, dst []uint64)
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
//   - the H2 window is the mapping that starts at H2Base. A word access
//     calls its Memory, so it reaches the mapped file and touches its page
//     cache exactly as a scan would; an object's primitive run (loadRun)
//     makes one RunLoader call that replays the same page-cache sequence.
//
// Any other address falls through to a linear scan of the mappings.
type AddressSpace struct {
	ramBase  Addr
	ramWords []uint64
	h2       Mapping
	mappings []Mapping
	// one is loadTwice's destination word: a local array would escape
	// through the RunLoader call.
	one [1]uint64
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
	if m := as.mapping(a); m != nil {
		return m.Mem
	}
	return nil
}

// mapping returns the mapping covering a, or nil: the H2 window, then a
// scan of the mappings.
func (as *AddressSpace) mapping(a Addr) *Mapping {
	if a >= as.h2.Start && a < as.h2.End {
		return &as.h2
	}
	for i := range as.mappings {
		if m := &as.mappings[i]; a >= m.Start && a < m.End {
			return m
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

// slow resolves an address outside the DRAM window. It panics on
// unmapped addresses: an unmapped access is a simulator bug, not a
// recoverable condition.
func (as *AddressSpace) slow(a Addr, op string) Memory {
	if m := as.mapping(a); m != nil {
		return m.Mem
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

// loadRun fills dst[k] with the word at a+k*stride words, for k in order,
// as if each word were loaded right after the word at hdr (the object's
// shape word, which precedes the run in the same mapping). Inside the DRAM
// window it is a copy. A mapping whose Memory is a RunLoader covering the
// whole range takes one LoadRun call; anything else (Panthera's NVM, a run
// straddling two mappings) loads word by word.
func (as *AddressSpace) loadRun(hdr, a Addr, stride int, dst []uint64) {
	last := a + Addr((len(dst)-1)*stride*WordSize)
	if w, ok := as.ram(hdr, int(last-hdr)>>3+1); ok {
		w = w[(a-hdr)>>3:]
		if stride == 1 {
			copy(dst, w)
			return
		}
		for k := range dst {
			dst[k] = w[k*stride]
		}
		return
	}
	if m := as.mapping(a); m != nil && hdr >= m.Start && last < m.End {
		if r, ok := m.Mem.(RunLoader); ok {
			r.LoadRun(hdr, a, stride, dst)
			return
		}
	}
	for k := range dst {
		as.Load(hdr)
		dst[k] = as.Load(a + Addr(k*stride*WordSize))
	}
}

// loadTwice returns the word at a, leaving the page cache, device counters
// and clock as two consecutive loads of it would. Inside the DRAM window
// it is one read; elsewhere it is loadRun(a, a, 1, ...), which the
// RunLoader contract turns into exactly those two loads.
func (as *AddressSpace) loadTwice(a Addr) uint64 {
	if i := uint64(a-as.ramBase) >> 3; i < uint64(len(as.ramWords)) {
		return as.ramWords[i]
	}
	as.loadRun(a, a, 1, as.one[:])
	return as.one[0]
}

// storeRun writes src[k] to the word at a+k words, for k in order, each
// store following a load of the word at hdr (the object's shape word,
// which precedes the run), as a SetPrimAt loop does. Inside the DRAM
// window it is a copy; anywhere else it is that load/store loop.
func (as *AddressSpace) storeRun(hdr, a Addr, src []uint64) {
	if w, ok := as.ram(hdr, int(a-hdr)>>3+len(src)); ok {
		copy(w[(a-hdr)>>3:], src)
		return
	}
	for k, v := range src {
		as.Load(hdr)
		as.Store(a+Addr(k*WordSize), v)
	}
}
