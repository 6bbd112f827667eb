// Package mem implements the simulated physical memory and the
// set-associative write-back caches of the sevsim machine models.
//
// The cache arrays are authoritative: once a line is resident, reads are
// served from the line's data bytes and writes update them, so a bit
// flipped inside a cache data or tag array propagates (or is masked)
// exactly as it would in hardware — by being consumed, overwritten,
// evicted, or written back.
package mem

import (
	"encoding/binary"
	"sort"

	"sevsim/internal/simerr"
)

// PageSize is the allocation granule of the simulated physical memory.
const PageSize = 4096

// Perm is a region permission bit set.
type Perm uint8

const (
	PermR Perm = 1 << iota
	PermW
	PermX
)

// Region is a mapped address range with permissions.
type Region struct {
	Name string
	Base uint64
	Size uint64
	Perm Perm
}

// Contains reports whether [addr, addr+size) lies inside the region.
func (r Region) Contains(addr, size uint64) bool {
	return addr >= r.Base && addr+size <= r.Base+r.Size && addr+size >= addr
}

// FaultKind classifies a program-level memory fault.
type FaultKind uint8

const (
	FaultNone FaultKind = iota
	FaultUnmapped
	FaultMisaligned
	FaultProtection
)

func (k FaultKind) String() string {
	switch k {
	case FaultUnmapped:
		return "unmapped"
	case FaultMisaligned:
		return "misaligned"
	case FaultProtection:
		return "protection"
	}
	return "none"
}

// Fault describes a failed program-level access. It becomes a precise
// exception in the core and a Crash outcome for the run.
type Fault struct {
	Kind  FaultKind
	Addr  uint64
	Write bool
}

// Memory is the flat physical memory: a set of mapped regions backed by
// lazily allocated pages. Accesses from the core are validated with
// CheckAccess before they enter the cache hierarchy; the raw line
// interface used by caches asserts (simulator invariant) on unmapped
// addresses, because by construction only a corrupted tag or a corrupted
// queue entry can steer the hierarchy outside the map.
type Memory struct {
	regions []Region //snapshot:skip immutable address map, fixed at program load
	pages   map[uint64]*[PageSize]byte

	// shared marks pages whose backing array is aliased by at least one
	// snapshot (see snapshot.go). Writers must go through writablePage,
	// which clones a shared page before the first store to it, so the K
	// checkpoints of a golden run cost one page copy per *written* page
	// rather than K copies of the whole memory.
	//
	//equality:dead COW bookkeeping; every observable byte is compared via pages
	shared map[uint64]struct{}

	// Latency is the flat access latency in cycles charged per line
	// transfer to or from memory.
	Latency int //snapshot:skip immutable configuration, fixed at construction
}

// NewMemory creates an empty memory with the given flat access latency.
func NewMemory(latency int) *Memory {
	return &Memory{
		pages:   make(map[uint64]*[PageSize]byte),
		shared:  make(map[uint64]struct{}),
		Latency: latency,
	}
}

// Map adds a region. Overlapping regions are rejected via assert since
// they indicate a harness bug, not a simulated fault.
func (m *Memory) Map(r Region) {
	for _, old := range m.regions {
		if r.Base < old.Base+old.Size && old.Base < r.Base+r.Size {
			simerr.Assertf("mem: region %q overlaps %q", r.Name, old.Name)
		}
	}
	m.regions = append(m.regions, r)
	sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].Base < m.regions[j].Base })
}

// CheckAccess validates a program-level access of size bytes. It returns
// nil when the access is legal.
func (m *Memory) CheckAccess(addr, size uint64, write bool) *Fault {
	if size > 1 && addr%size != 0 {
		return &Fault{Kind: FaultMisaligned, Addr: addr, Write: write}
	}
	for _, r := range m.regions {
		if r.Contains(addr, size) {
			need := PermR
			if write {
				need = PermW
			}
			if r.Perm&need == 0 {
				return &Fault{Kind: FaultProtection, Addr: addr, Write: write}
			}
			return nil
		}
	}
	return &Fault{Kind: FaultUnmapped, Addr: addr, Write: write}
}

// CheckFetch validates an instruction fetch address.
func (m *Memory) CheckFetch(addr uint64) *Fault {
	if addr%4 != 0 {
		return &Fault{Kind: FaultMisaligned, Addr: addr}
	}
	for _, r := range m.regions {
		if r.Contains(addr, 4) {
			if r.Perm&PermX == 0 {
				return &Fault{Kind: FaultProtection, Addr: addr}
			}
			return nil
		}
	}
	return &Fault{Kind: FaultUnmapped, Addr: addr}
}

// ExecSpan returns the bounds of the executable region containing the
// 4-byte word at addr. The address map is immutable after program
// load, so callers may memoize the span and skip CheckFetch for
// aligned fetches inside it.
func (m *Memory) ExecSpan(addr uint64) (base, size uint64, ok bool) {
	for _, r := range m.regions {
		if r.Contains(addr, 4) && r.Perm&PermX != 0 {
			return r.Base, r.Size, true
		}
	}
	return 0, 0, false
}

func (m *Memory) mapped(addr, size uint64) bool {
	for _, r := range m.regions {
		if r.Contains(addr, size) {
			return true
		}
	}
	return false
}

func (m *Memory) page(addr uint64, create bool) *[PageSize]byte {
	key := addr / PageSize
	p := m.pages[key]
	if p == nil && create {
		p = new([PageSize]byte)
		m.pages[key] = p
	}
	return p
}

// writablePage returns the page containing addr, cloning it first when
// its backing array is aliased by a snapshot. All stores into memory
// must come through here; reads may keep using page, which never
// mutates the array.
func (m *Memory) writablePage(addr uint64) *[PageSize]byte {
	key := addr / PageSize
	p := m.pages[key]
	if p == nil {
		p = new([PageSize]byte)
		m.pages[key] = p
		return p
	}
	if _, ok := m.shared[key]; ok {
		cl := *p
		p = &cl
		m.pages[key] = p
		delete(m.shared, key)
	}
	return p
}

// ReadLine copies a naturally aligned line from memory into dst. It
// asserts when the address is outside the system map: only corrupted
// microarchitectural state can route a line fill to an unmapped address.
func (m *Memory) ReadLine(addr uint64, dst []byte) int {
	size := uint64(len(dst))
	if addr%size != 0 {
		simerr.Assertf("mem: misaligned line read at %#x", addr)
	}
	if !m.mapped(addr, size) {
		simerr.Assertf("mem: line read outside system map at %#x", addr)
	}
	for i := uint64(0); i < size; {
		p := m.page(addr+i, false)
		off := (addr + i) % PageSize
		n := min(size-i, PageSize-off)
		if p == nil {
			for j := uint64(0); j < n; j++ {
				dst[i+j] = 0
			}
		} else {
			copy(dst[i:i+n], p[off:off+n])
		}
		i += n
	}
	return m.Latency
}

// WriteLine copies a naturally aligned line into memory. Same mapping
// contract as ReadLine.
func (m *Memory) WriteLine(addr uint64, src []byte) int {
	size := uint64(len(src))
	if addr%size != 0 {
		simerr.Assertf("mem: misaligned line write at %#x", addr)
	}
	if !m.mapped(addr, size) {
		simerr.Assertf("mem: line write outside system map at %#x", addr)
	}
	for i := uint64(0); i < size; {
		p := m.writablePage(addr + i)
		off := (addr + i) % PageSize
		n := min(size-i, PageSize-off)
		copy(p[off:off+n], src[i:i+n])
		i += n
	}
	return m.Latency
}

// LoadImage writes raw bytes directly into memory, bypassing permission
// checks. Used by the program loader before simulation starts.
func (m *Memory) LoadImage(addr uint64, data []byte) {
	for i := range data {
		p := m.writablePage(addr + uint64(i))
		p[(addr+uint64(i))%PageSize] = data[i]
	}
}

// ReadWord reads an n-byte little-endian value directly from memory,
// bypassing the cache hierarchy. Used by tests and by the loader.
func (m *Memory) ReadWord(addr uint64, n int) uint64 {
	var buf [8]byte
	for i := 0; i < n; i++ {
		p := m.page(addr+uint64(i), false)
		if p != nil {
			buf[i] = p[(addr+uint64(i))%PageSize]
		}
	}
	return binary.LittleEndian.Uint64(buf[:])
}
