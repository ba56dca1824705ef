package faultinject

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// ConnFaults describes the fault mix for one network link. The zero value
// injects nothing.
type ConnFaults struct {
	// RefuseFirst refuses the first N dial attempts outright — the
	// "peer not up yet" race an MPI launcher loses on a slow node.
	RefuseFirst int
	// RefuseRate additionally refuses dials with this probability.
	RefuseRate float64
	// CloseAfterWrites closes the connection under the sender after this
	// many successful writes; 0 disables. The next write fails, forcing
	// the transport's reconnect path.
	CloseAfterWrites int
	// PartialWriteRate makes a write deliver only a prefix and report a
	// short-write error with this probability.
	PartialWriteRate float64
	// WriteErrRate fails a write (and poisons the connection) with this
	// probability.
	WriteErrRate float64
	// Latency delays each write; Sleep overrides time.Sleep.
	Latency time.Duration
	Sleep   func(time.Duration)
}

// Dialer matches the dial hook collect.ShipperOptions accepts, so a
// FaultyDialer slots straight into the shipper under test.
type Dialer func(network, addr string, timeout time.Duration) (net.Conn, error)

// FaultyDialer wraps base (nil = net.DialTimeout) so every connection it
// establishes carries the fault mix. Dial-level faults (refusals) are
// applied before the real dial.
func FaultyDialer(plan *Plan, f ConnFaults, base Dialer) Dialer {
	if base == nil {
		base = net.DialTimeout
	}
	var mu sync.Mutex
	dials := 0
	return func(network, addr string, timeout time.Duration) (net.Conn, error) {
		mu.Lock()
		n := dials
		dials++
		mu.Unlock()
		if n < f.RefuseFirst {
			return nil, fmt.Errorf("%w: dial %s refused (attempt %d)", ErrInjected, addr, n)
		}
		if plan.Hit(f.RefuseRate) {
			return nil, fmt.Errorf("%w: dial %s refused", ErrInjected, addr)
		}
		c, err := base(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		return NewFaultyConn(c, plan, f), nil
	}
}

// FaultyConn wraps a net.Conn, corrupting the write side per ConnFaults.
// Reads pass through untouched: Tempest's transport frames are validated
// by the receiver, so write-side faults exercise every recovery path.
type FaultyConn struct {
	net.Conn
	plan   *Plan
	faults ConnFaults

	mu     sync.Mutex
	writes int
	dead   bool
}

// NewFaultyConn wraps an established connection.
func NewFaultyConn(c net.Conn, plan *Plan, f ConnFaults) *FaultyConn {
	if f.Sleep == nil {
		f.Sleep = time.Sleep
	}
	return &FaultyConn{Conn: c, plan: plan, faults: f}
}

// Write applies latency, injected errors, partial writes and mid-stream
// closes before delegating to the wrapped connection.
func (fc *FaultyConn) Write(b []byte) (int, error) {
	f := fc.faults
	if f.Latency > 0 {
		f.Sleep(f.Latency)
	}
	fc.mu.Lock()
	if fc.dead {
		fc.mu.Unlock()
		return 0, fmt.Errorf("%w: write on injected-closed conn", ErrInjected)
	}
	if f.CloseAfterWrites > 0 && fc.writes >= f.CloseAfterWrites {
		fc.dead = true
		fc.mu.Unlock()
		fc.Conn.Close()
		return 0, fmt.Errorf("%w: conn closed mid-stream after %d writes", ErrInjected, f.CloseAfterWrites)
	}
	fc.mu.Unlock()

	if fc.plan.Hit(f.WriteErrRate) {
		fc.mu.Lock()
		fc.dead = true
		fc.mu.Unlock()
		fc.Conn.Close()
		return 0, fmt.Errorf("%w: write error", ErrInjected)
	}
	if len(b) > 1 && fc.plan.Hit(f.PartialWriteRate) {
		n, err := fc.Conn.Write(b[:len(b)/2])
		if err != nil {
			return n, err
		}
		fc.mu.Lock()
		fc.dead = true
		fc.mu.Unlock()
		fc.Conn.Close()
		return n, fmt.Errorf("%w: partial write (%d of %d bytes)", ErrInjected, n, len(b))
	}
	n, err := fc.Conn.Write(b)
	if err == nil {
		fc.mu.Lock()
		fc.writes++
		fc.mu.Unlock()
	}
	return n, err
}
