// Package mpi is a message-passing runtime with MPI-1 style semantics:
// ranks, tagged point-to-point messages with FIFO matching, wildcard
// receives, and the collectives the NAS Parallel Benchmarks need (Bcast,
// Reduce, Allreduce, Gather, Allgather, Alltoall).
//
// The paper profiles MPI applications on a four-node Opteron cluster; Go
// has no practical MPI binding, so this package is the substituted
// substrate (see DESIGN.md). Ranks are goroutines in one process and each
// owns a mailbox. The synchronisation structure of a program — who blocks
// on whom, where the all-to-alls and barriers fall — is what the thermal
// phases in Figures 3–4 derive from, and it does not depend on the wire.
package mpi

import (
	"errors"
	"sync"
)

// AnySource matches messages from any rank in Recv.
const AnySource = -1

// AnyTag matches any non-negative user tag in Recv.
const AnyTag = -1

// ErrClosed is returned by operations on a closed world.
var ErrClosed = errors.New("mpi: world closed")

// inMsg is one queued message.
type inMsg struct {
	src  int
	ctx  int
	tag  int
	data []byte
}

// mailbox holds undelivered messages for one rank with MPI matching:
// the earliest queued message satisfying the (source, tag) pattern wins.
// The context id isolates communicators: a receive only matches messages
// sent in the same context (MPI's communicator-safety rule).
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []inMsg
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(msg inMsg) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.queue = append(m.queue, msg)
	m.cond.Broadcast()
	return nil
}

// match scans FIFO for the first message matching the pattern.
func matches(msg inMsg, from, ctx, tag int) bool {
	if msg.ctx != ctx {
		return false
	}
	if from != AnySource && msg.src != from {
		return false
	}
	if tag != AnyTag && msg.tag != tag {
		return false
	}
	return true
}

func (m *mailbox) get(from, ctx, tag int) (inMsg, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i := range m.queue {
			if matches(m.queue[i], from, ctx, tag) {
				msg := m.queue[i]
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				return msg, nil
			}
		}
		if m.closed {
			return inMsg{}, ErrClosed
		}
		m.cond.Wait()
	}
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}
