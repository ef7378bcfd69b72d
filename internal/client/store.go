package client

import "sync"

// RegisterStore is the passive server-side half of the protocol: a map
// of tagged registers ordered by (ts, writer), last-writer-wins. Apply
// is idempotent by construction — storing a tag the register already
// holds (a client's resubmit after a stale-view retry) or an older one
// changes nothing and still acks, which is exactly what makes the
// client's retry-same-tag loop safe.
//
// A stored value is the store's own copy, and a newer write overwrites
// it in place when it fits, so a value leaves the store only as a copy
// made under the lock: Get returns a fresh one, and the server's getKey
// appends into its connection's buffer. The server looks keys up
// straight from a request frame's bytes (getKey, applyKey) without
// converting them to a string.
type RegisterStore struct {
	mu   sync.Mutex
	regs map[string]*register
}

type register struct {
	ts       uint64
	writer   uint32
	value    []byte
	advances uint64
}

// NewRegisterStore returns an empty store.
func NewRegisterStore() *RegisterStore {
	return &RegisterStore{regs: map[string]*register{}}
}

// Get returns the register's current tag and a copy of its value (zero
// tag, nil value when the key was never written).
func (s *RegisterStore) Get(key string) (ts uint64, writer uint32, value []byte) {
	return s.getKey([]byte(key), nil)
}

// getKey is Get on a key still in its request frame, appending the
// value to buf[:0].
func (s *RegisterStore) getKey(key, buf []byte) (ts uint64, writer uint32, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.regs[string(key)]
	if r == nil {
		return 0, 0, buf[:0]
	}
	return r.ts, r.writer, append(buf[:0], r.value...)
}

// Apply stores value under (ts, writer) if that tag is newer than the
// register's current one and reports whether the state advanced. An
// equal or older tag is a no-op that still counts as success at the
// protocol level — the caller acks either way.
func (s *RegisterStore) Apply(key string, ts uint64, writer uint32, value []byte) bool {
	return s.applyKey([]byte(key), ts, writer, value)
}

// applyKey is Apply on a key still in its request frame; the key is
// converted to a string only when it names a new register.
func (s *RegisterStore) applyKey(key []byte, ts uint64, writer uint32, value []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.regs[string(key)]
	if r == nil && tagLess(0, 0, ts, writer) {
		r = &register{}
		s.regs[string(key)] = r
	}
	return r.apply(ts, writer, value)
}

// apply copies value into r's buffer if (ts, writer) is newer than r's
// tag. A nil r is only ever offered a tag no newer than the zero one.
func (r *register) apply(ts uint64, writer uint32, value []byte) bool {
	if r == nil || !tagLess(r.ts, r.writer, ts, writer) {
		return false
	}
	r.ts, r.writer = ts, writer
	r.value = append(r.value[:0], value...)
	r.advances++
	return true
}

// Advances returns how many times the key's register state advanced —
// the witness the idempotence tests count: a write resubmitted across
// an epoch switch must advance each replica at most once.
func (s *RegisterStore) Advances(key string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.regs[key]; r != nil {
		return r.advances
	}
	return 0
}

// Keys returns how many registers the store holds.
func (s *RegisterStore) Keys() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.regs)
}

// ViewState is the server side's authoritative (epoch, members) pair.
// The deployment advances it when a membership epoch activates; every
// request is checked against it.
type ViewState struct {
	mu      sync.Mutex
	epoch   uint64
	members []uint32
}

// NewViewState starts at the given epoch and member list.
func NewViewState(epoch uint64, members []uint32) *ViewState {
	return &ViewState{epoch: epoch, members: append([]uint32(nil), members...)}
}

// check compares a request's epoch with the active one. It returns the
// active epoch, and a copy of its members only when they differ, which
// is the one case a response carries them.
func (v *ViewState) check(epoch uint64) (current uint64, members []uint32, ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if epoch == v.epoch {
		return v.epoch, nil, true
	}
	return v.epoch, append([]uint32(nil), v.members...), false
}

// Advance installs a newer epoch; older or equal epochs are ignored
// (activations can race in from multiple observers).
func (v *ViewState) Advance(epoch uint64, members []uint32) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if epoch <= v.epoch {
		return
	}
	v.epoch = epoch
	v.members = append([]uint32(nil), members...)
}
