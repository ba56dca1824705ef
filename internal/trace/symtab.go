package trace

import (
	"fmt"
	"sync"
)

// SymTab maps function identifiers to names and synthetic addresses.
//
// The paper's tracer records raw code addresses and its parser resolves
// them through the executable's ELF symbol table (§3.2). Go functions have
// no stable link-time addresses we can portably record, so registration
// assigns each function a synthetic address in a text-segment-shaped
// range; the parser performs the same address→name resolution step against
// this table, preserving the pipeline's structure.
type SymTab struct {
	mu     sync.RWMutex
	byName map[string]uint32
	names  []string // index = FuncID
	addrs  []uint64 // index = FuncID
}

// symBase mimics the start of an x86-64 text segment; symStride spaces
// functions like small aligned code blocks.
const (
	symBase   = 0x400000
	symStride = 0x40
)

// NewSymTab returns an empty symbol table.
func NewSymTab() *SymTab {
	return &SymTab{byName: make(map[string]uint32)}
}

// Register returns the FuncID for name, assigning a new id and synthetic
// address on first registration. Registration is idempotent.
func (s *SymTab) Register(name string) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.byName[name]; ok {
		return id
	}
	id := uint32(len(s.names))
	s.byName[name] = id
	s.names = append(s.names, name)
	s.addrs = append(s.addrs, uint64(symBase+symStride*int(id)))
	return id
}

// Name resolves a FuncID to its name.
func (s *SymTab) Name(id uint32) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(id) >= len(s.names) {
		return "", fmt.Errorf("trace: unknown function id %d", id)
	}
	return s.names[id], nil
}

// Addr returns the synthetic address of a FuncID.
func (s *SymTab) Addr(id uint32) (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(id) >= len(s.addrs) {
		return 0, fmt.Errorf("trace: unknown function id %d", id)
	}
	return s.addrs[id], nil
}

// Len reports the number of registered functions.
func (s *SymTab) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.names)
}

// Names returns all registered names in FuncID order.
func (s *SymTab) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.names...)
}

// clone returns a deep copy, used when snapshotting a trace.
func (s *SymTab) clone() *SymTab {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := &SymTab{
		byName: make(map[string]uint32, len(s.byName)),
		names:  append([]string(nil), s.names...),
		addrs:  append([]uint64(nil), s.addrs...),
	}
	for k, v := range s.byName {
		c.byName[k] = v
	}
	return c
}
