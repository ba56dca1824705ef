package mpi

import (
	"errors"
	"fmt"
	"sync"
)

// World owns one mailbox per rank and the per-rank Comm endpoints.
type World struct {
	boxes []*mailbox
	comms []*Comm
}

// NewWorld builds an in-process world of `size` ranks.
func NewWorld(size int) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpi: world size %d must be ≥1", size)
	}
	w := &World{boxes: make([]*mailbox, size), comms: make([]*Comm, size)}
	for r := range w.boxes {
		w.boxes[r] = newMailbox()
		w.comms[r] = &Comm{rank: r, size: size, world: w}
	}
	return w, nil
}

// Comm returns rank r's endpoint.
func (w *World) Comm(r int) (*Comm, error) {
	if err := w.checkRank(r); err != nil {
		return nil, err
	}
	return w.comms[r], nil
}

// Close shuts every mailbox; pending and later receives fail with
// ErrClosed. Closing twice is harmless.
func (w *World) Close() error {
	for _, b := range w.boxes {
		b.close()
	}
	return nil
}

// send queues data from world rank `from` in rank `to`'s mailbox under
// communicator context ctx. The receiver owns data after the call.
func (w *World) send(from, to, ctx, tag int, data []byte) error {
	if err := w.checkRank(from); err != nil {
		return err
	}
	if err := w.checkRank(to); err != nil {
		return err
	}
	return w.boxes[to].put(inMsg{src: from, ctx: ctx, tag: tag, data: data})
}

// recv blocks until a message for world rank `me` matching (from, ctx,
// tag) arrives; from may be AnySource and tag AnyTag. It returns the
// actual source, actual tag and payload.
func (w *World) recv(me, from, ctx, tag int) (src, gotTag int, data []byte, err error) {
	if err := w.checkRank(me); err != nil {
		return 0, 0, nil, err
	}
	if from != AnySource {
		if err := w.checkRank(from); err != nil {
			return 0, 0, nil, err
		}
	}
	msg, err := w.boxes[me].get(from, ctx, tag)
	if err != nil {
		return 0, 0, nil, err
	}
	return msg.src, msg.tag, msg.data, nil
}

func (w *World) checkRank(r int) error {
	if r < 0 || r >= len(w.boxes) {
		return fmt.Errorf("mpi: rank %d out of range [0,%d)", r, len(w.boxes))
	}
	return nil
}

// Run executes body on every rank of an existing world and waits.
func (w *World) Run(body func(c *Comm) error) error {
	errs := make([]error, len(w.comms))
	var wg sync.WaitGroup
	for r := range w.comms {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("mpi: rank %d panicked: %v", r, p)
				}
			}()
			if err := body(w.comms[r]); err != nil {
				errs[r] = fmt.Errorf("mpi: rank %d: %w", r, err)
			}
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}
