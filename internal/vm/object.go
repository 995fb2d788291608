package vm

// Object header layout (3 words, mirroring the paper's extended header):
//
//	word 0: status word — class id, age, GC flags; or a forwarding pointer
//	word 1: size in words (low 32) | number of reference fields (high 32)
//	word 2: TeraHeap label (the paper's extra 8-byte header field, §3.2)
//	word 3..3+numRefs-1:   reference fields
//	word 3+numRefs..size-1: primitive words
const HeaderWords = 3

// Header word offsets.
const (
	hdrStatus = 0
	hdrShape  = 1
	hdrLabel  = 2
)

// Status-word encoding. The masks are exported because GC image builders
// (minor direct promotion, major compaction, G1 closure moves) and the
// invariant verifier all need to strip or test the transient GC bits.
const (
	ClassMask      = 0xFFFF // bits 0-15
	ageShift       = 16     // bits 16-19
	ageMask        = 0xF
	FlagMark       = 1 << 24 // live, set by major GC marking
	FlagClosure    = 1 << 25 // selected for H2 movement this major GC
	FlagPretenured = 1 << 26 // placed in old gen by a placement policy
	FlagFwd        = 1 << 63 // word 0 holds a forwarding pointer
	FwdAddrMask    = (1 << 48) - 1
)

// MaxAge is the tenuring ceiling representable in the header.
const MaxAge = ageMask

// Mem wraps an address space with object-level accessors. All GC and
// framework code manipulates objects exclusively through Mem so that H2
// accesses route through the simulated mapped file and charge I/O.
type Mem struct {
	AS      *AddressSpace
	Classes *ClassTable
}

// NewMem builds an object accessor over as and classes.
func NewMem(as *AddressSpace, classes *ClassTable) *Mem {
	return &Mem{AS: as, Classes: classes}
}

// InitObject writes a fresh header at a for an object of class c with the
// given reference-field count and total size in words, and zeroes the
// fields. The object starts unmarked, age 0, label 0.
func (m *Mem) InitObject(a Addr, c *Class, numRefs, sizeWords int) {
	m.AS.Store(a+hdrStatus*WordSize, uint64(c.ID))
	m.AS.Store(a+hdrShape*WordSize, uint64(sizeWords)|uint64(numRefs)<<32)
	m.AS.Store(a+hdrLabel*WordSize, 0)
	if w, ok := m.AS.ram(a+HeaderWords*WordSize, sizeWords-HeaderWords); ok {
		clear(w)
		return
	}
	for i := HeaderWords; i < sizeWords; i++ {
		m.AS.Store(a+Addr(i*WordSize), 0)
	}
}

// Status returns the raw status word.
func (m *Mem) Status(a Addr) uint64 { return m.AS.Load(a + hdrStatus*WordSize) }

// SetStatus writes the raw status word.
func (m *Mem) SetStatus(a Addr, v uint64) { m.AS.Store(a+hdrStatus*WordSize, v) }

// Shape returns the raw shape word (size | numRefs<<32).
func (m *Mem) Shape(a Addr) uint64 { return m.AS.Load(a + hdrShape*WordSize) }

// ClassOf returns the class of the object at a.
func (m *Mem) ClassOf(a Addr) *Class {
	return m.Classes.Get(ClassID(m.Status(a) & ClassMask))
}

// SizeWords returns the total object size in words including the header.
func (m *Mem) SizeWords(a Addr) int { return int(uint32(m.Shape(a))) }

// SizeBytes returns the total object size in bytes.
func (m *Mem) SizeBytes(a Addr) int64 { return int64(m.SizeWords(a)) * WordSize }

// NumRefs returns the number of reference fields of the object at a.
func (m *Mem) NumRefs(a Addr) int { return int(m.Shape(a) >> 32) }

// Age returns the object's tenuring age.
func (m *Mem) Age(a Addr) int { return int(m.Status(a) >> ageShift & ageMask) }

// SetAge sets the tenuring age, clamped to MaxAge.
func (m *Mem) SetAge(a Addr, age int) {
	if age > MaxAge {
		age = MaxAge
	}
	s := m.Status(a)
	s &^= uint64(ageMask) << ageShift
	s |= uint64(age) << ageShift
	m.SetStatus(a, s)
}

// Marked reports the major-GC mark bit.
func (m *Mem) Marked(a Addr) bool { return m.Status(a)&FlagMark != 0 }

// SetMarked sets or clears the major-GC mark bit.
func (m *Mem) SetMarked(a Addr, v bool) { m.setFlag(a, FlagMark, v) }

// InClosure reports whether the object was selected for H2 movement.
func (m *Mem) InClosure(a Addr) bool { return m.Status(a)&FlagClosure != 0 }

// SetInClosure sets or clears the H2-closure bit.
func (m *Mem) SetInClosure(a Addr, v bool) { m.setFlag(a, FlagClosure, v) }

func (m *Mem) setFlag(a Addr, flag uint64, v bool) {
	s := m.Status(a)
	if v {
		s |= flag
	} else {
		s &^= flag
	}
	m.SetStatus(a, s)
}

// Forwarded reports whether the object has been forwarded (scavenged).
func (m *Mem) Forwarded(a Addr) bool { return m.Status(a)&FlagFwd != 0 }

// Forwardee returns the forwarding pointer; only valid when Forwarded.
func (m *Mem) Forwardee(a Addr) Addr { return Addr(m.Status(a) & FwdAddrMask) }

// SetForwardee overwrites the status word with a forwarding pointer.
func (m *Mem) SetForwardee(a, to Addr) {
	m.SetStatus(a, FlagFwd|uint64(to)&FwdAddrMask)
}

// Label returns the TeraHeap label (0 = untagged).
func (m *Mem) Label(a Addr) uint64 { return m.AS.Load(a + hdrLabel*WordSize) }

// SetLabel tags the object with a TeraHeap label.
func (m *Mem) SetLabel(a Addr, label uint64) { m.AS.Store(a+hdrLabel*WordSize, label) }

// RefAt returns reference field i.
func (m *Mem) RefAt(a Addr, i int) Addr {
	return Addr(m.AS.Load(a + Addr((HeaderWords+i)*WordSize)))
}

// SetRefAt writes reference field i WITHOUT a write barrier. GC interior
// use only: mutators must go through gc.Collector.WriteRef.
func (m *Mem) SetRefAt(a Addr, i int, v Addr) {
	m.AS.Store(a+Addr((HeaderWords+i)*WordSize), uint64(v))
}

// PrimAt returns primitive word i (i counts from the first primitive word).
func (m *Mem) PrimAt(a Addr, i int) uint64 {
	return m.AS.Load(a + Addr((HeaderWords+m.NumRefs(a)+i)*WordSize))
}

// SetPrimAt writes primitive word i.
func (m *Mem) SetPrimAt(a Addr, i int, v uint64) {
	m.AS.Store(a+Addr((HeaderWords+m.NumRefs(a)+i)*WordSize), uint64(v))
}

// NumPrims returns the number of primitive words of the object at a.
func (m *Mem) NumPrims(a Addr) int {
	return m.SizeWords(a) - HeaderWords - m.NumRefs(a)
}

// CopyObject copies the sizeWords-long object at src to dst word by word,
// in ascending address order. When both ranges lie inside the DRAM window
// and the forward word loop would equal a memmove (dst at or below src, or
// no overlap), the copy is one bulk move.
func (m *Mem) CopyObject(dst, src Addr, sizeWords int) {
	if dst <= src || dst >= src+Addr(sizeWords*WordSize) {
		if d, ok := m.AS.ram(dst, sizeWords); ok {
			if s, ok := m.AS.ram(src, sizeWords); ok {
				copy(d, s)
				return
			}
		}
	}
	for i := 0; i < sizeWords; i++ {
		m.AS.Store(dst+Addr(i*WordSize), m.AS.Load(src+Addr(i*WordSize)))
	}
}

// Pure decoders over raw header words, for code (the invariant verifier,
// analyses) that reads headers through a cost-free peek path rather than
// the charging Load path. They mirror the Mem accessors above exactly.

// StatusForwarded reports whether a raw status word is a forwarding pointer.
func StatusForwarded(status uint64) bool { return status&FlagFwd != 0 }

// StatusForwardee decodes the forwarding target of a raw status word.
func StatusForwardee(status uint64) Addr { return Addr(status & FwdAddrMask) }

// StatusClassID decodes the class id of a raw status word.
func StatusClassID(status uint64) ClassID { return ClassID(status & ClassMask) }

// StatusAge decodes the tenuring age of a raw status word.
func StatusAge(status uint64) int { return int(status >> ageShift & ageMask) }

// ShapeSizeWords decodes the total object size (in words) of a raw shape word.
func ShapeSizeWords(shape uint64) int { return int(uint32(shape)) }

// ShapeNumRefs decodes the reference-field count of a raw shape word.
func ShapeNumRefs(shape uint64) int { return int(shape >> 32) }
