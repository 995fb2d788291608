// Package heap lays out the regular managed heap (H1): a Parallel
// Scavenge-style generational heap with an eden space, two survivor
// semispaces, an old generation, and a card table tracking old-to-young
// references.
package heap

import (
	"fmt"

	"github.com/carv-repro/teraheap-go/internal/vm"
)

// Config sizes H1. Ratios follow Parallel Scavenge defaults.
type Config struct {
	// H1Size is the total heap size in bytes.
	H1Size int64
	// YoungFraction of H1 devoted to the young generation (PS default
	// NewRatio=2 → 1/3).
	YoungFraction float64
	// TenureAge is the number of minor GCs an object survives before
	// promotion to the old generation.
	TenureAge int
}

// survivorFraction is the share of the young generation per survivor space
// (PS default SurvivorRatio=8 → 1/10 each).
const survivorFraction = 0.1

// ConfigError is the typed error for an invalid H1 configuration. Heap
// geometry comes from user input (experiment sweeps, CLI flags), so bad
// values surface as errors, not panics.
type ConfigError struct{ Reason string }

// Error describes the invalid configuration.
func (e *ConfigError) Error() string { return "heap: invalid config: " + e.Reason }

// Validate checks the configuration for user-correctable mistakes.
func (cfg *Config) Validate() error {
	switch {
	case cfg.H1Size <= 0:
		return &ConfigError{Reason: fmt.Sprintf("non-positive H1 size %d", cfg.H1Size)}
	case cfg.YoungFraction <= 0 || cfg.YoungFraction >= 1:
		return &ConfigError{Reason: fmt.Sprintf("bad young fraction %v", cfg.YoungFraction)}
	}
	return nil
}

// DefaultConfig returns PS-like defaults for the given heap size.
func DefaultConfig(h1Size int64) Config {
	return Config{
		H1Size:        h1Size,
		YoungFraction: 1.0 / 3.0,
		TenureAge:     3,
	}
}

// H1 is the regular DRAM-backed heap.
type H1 struct {
	Cfg  Config
	Eden *vm.Space
	From *vm.Space
	To   *vm.Space
	Old  *vm.Space

	// Cards covers the old generation, tracking old-to-young references
	// and the first object start in each card.
	Cards *CardTable

	ram *vm.RAM
}

// New lays H1 out at vm.H1Base backed by DRAM and maps it into as.
func New(cfg Config, as *vm.AddressSpace) *H1 {
	h := NewUnmapped(cfg)
	h.ram = vm.NewRAM(vm.H1Base, h.Cfg.H1Size)
	as.Map(vm.H1Base, vm.H1Base+vm.Addr(h.Cfg.H1Size), h.ram)
	return h
}

// NewUnmapped lays out the H1 spaces without binding memory; the caller
// maps [vm.H1Base, vm.H1Base+H1Size) itself. Used by the Spark-MO (NVM
// memory mode) and Panthera (hybrid DRAM+NVM old generation) baselines.
// It panics on an invalid configuration; validate first with
// Config.Validate where bad configs must not kill the process.
func NewUnmapped(cfg Config) *H1 {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	// Normalize the heap size to a 64-byte multiple so every space
	// boundary is word-aligned.
	cfg.H1Size &^= 63
	align := func(n int64) int64 { return n &^ (vm.WordSize*8 - 1) }
	youngSize := align(int64(float64(cfg.H1Size) * cfg.YoungFraction))
	survSize := align(int64(float64(youngSize) * survivorFraction))
	edenSize := youngSize - 2*survSize
	oldSize := cfg.H1Size - youngSize

	base := vm.H1Base
	h := &H1{Cfg: cfg}
	h.Eden = vm.NewSpace("eden", base, edenSize)
	h.From = vm.NewSpace("from", base+vm.Addr(edenSize), survSize)
	h.To = vm.NewSpace("to", base+vm.Addr(edenSize+survSize), survSize)
	h.Old = vm.NewSpace("old", base+vm.Addr(youngSize), oldSize)
	h.Cards = NewCardTable(h.Old.Start, h.Old.End)
	return h
}

// Words returns the DRAM words New maps under H1, word i holding the word
// at vm.H1Base+8i, so a collector can read and write H1 without a call per
// word. It is nil when the caller mapped H1 itself (NewUnmapped): those
// mappings may price every word access.
func (h *H1) Words() []uint64 {
	if h.ram == nil {
		return nil
	}
	return h.ram.Words()
}

// Contains reports whether a falls anywhere in H1.
func (h *H1) Contains(a vm.Addr) bool {
	return a >= h.Eden.Start && a < h.Old.End
}

// InYoung reports whether a is in the young generation (eden or survivors).
func (h *H1) InYoung(a vm.Addr) bool {
	return a >= h.Eden.Start && a < h.Old.Start
}

// InOld reports whether a is in the old generation.
func (h *H1) InOld(a vm.Addr) bool { return h.Old.Contains(a) }

// SwapSurvivors exchanges the from and to survivor spaces after a scavenge.
func (h *H1) SwapSurvivors() { h.From, h.To = h.To, h.From }

// YoungUsed returns bytes allocated in the young generation.
func (h *H1) YoungUsed() int64 { return h.Eden.Used() + h.From.Used() }

// Used returns bytes allocated across the whole heap.
func (h *H1) Used() int64 { return h.YoungUsed() + h.Old.Used() }

// OldOccupancy returns the old generation fill fraction in [0,1].
func (h *H1) OldOccupancy() float64 {
	c := h.Old.Capacity()
	if c == 0 {
		return 0
	}
	return float64(h.Old.Used()) / float64(c)
}
