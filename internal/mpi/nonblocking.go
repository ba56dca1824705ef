package mpi

import (
	"errors"
	"sync"
)

// nonblocking.go implements MPI_Isend/MPI_Irecv-style nonblocking
// point-to-point operations. A Request represents the in-flight
// operation; Wait blocks for completion, Test polls.

// Request is an in-flight nonblocking operation.
type Request struct {
	mu     sync.Mutex
	done   chan struct{}
	data   []byte
	src    int
	tag    int
	err    error
	waited bool
}

// newRequest starts op on its own goroutine.
func newRequest(op func() (src, tag int, data []byte, err error)) *Request {
	r := &Request{done: make(chan struct{})}
	go func() {
		src, tag, data, err := op()
		r.mu.Lock()
		r.src, r.tag, r.data, r.err = src, tag, data, err
		r.mu.Unlock()
		close(r.done)
	}()
	return r
}

// Wait blocks until the operation completes and returns its payload (nil
// for sends). Waiting twice is an error, as in MPI (requests are consumed).
func (r *Request) Wait() (src, tag int, data []byte, err error) {
	r.mu.Lock()
	if r.waited {
		r.mu.Unlock()
		return 0, 0, nil, errors.New("mpi: request already waited on")
	}
	r.waited = true
	r.mu.Unlock()
	<-r.done
	return r.src, r.tag, r.data, r.err
}

// Test reports whether the operation has completed without blocking. It
// does not consume the request; call Wait to retrieve the result.
func (r *Request) Test() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// Isend starts a nonblocking send. The receiver owns data after the call.
func (c *Comm) Isend(to, tag int, data []byte) (*Request, error) {
	if tag < 0 {
		return nil, errors.New("mpi: user tag must be ≥0")
	}
	c.opStart("MPI_Isend")
	defer c.opEnd("MPI_Isend")
	return newRequest(func() (int, int, []byte, error) {
		return 0, 0, nil, c.tsend(to, tag, data)
	}), nil
}

// Irecv starts a nonblocking receive matching (from, tag); from may be
// AnySource and tag AnyTag.
func (c *Comm) Irecv(from, tag int) *Request {
	c.opStart("MPI_Irecv")
	defer c.opEnd("MPI_Irecv")
	return newRequest(func() (int, int, []byte, error) {
		return c.trecv(from, tag)
	})
}

// WaitAll waits on every request, returning the first error encountered
// (all requests are consumed regardless).
func WaitAll(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if _, _, _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
