package main

import (
	"net"
	"sync"
	"time"

	"tempest/internal/collect"
	"tempest/internal/introspect"
)

// watchedShipper is a collect.Shipper whose per-chunk acknowledgement
// times the driver can see. The Shipper's API has no ack callback, and
// the benchmark may not add one, so the watcher sits in the one seam the
// Shipper does offer — ShipperOptions.Dial — and wraps the connection:
// every time the Shipper's downstream reader comes back for more bytes
// it has finished processing the previous ones, so Stats().AckedSegments
// is exact at that moment, and the chunks newly acknowledged since the
// last look are stamped with the time those bytes arrived.
type watchedShipper struct {
	*collect.Shipper

	mu       sync.Mutex
	cond     *sync.Cond
	acked    uint64      // chunks acknowledged so far
	ackTimes []time.Time // ackTimes[i] is when chunk i was acknowledged
	lastRead time.Time   // when the connection last delivered bytes
}

func newWatchedShipper(addr string, node uint32, reg *introspect.Registry) *watchedShipper {
	w := &watchedShipper{}
	w.cond = sync.NewCond(&w.mu)
	w.Shipper = collect.NewShipper(addr, node, node, collect.ShipperOptions{
		Introspect: reg,
		// Close counts what is unacknowledged after FlushTimeout as lost;
		// the default 5 s is a stall this host can produce.
		FlushTimeout: 30 * time.Second,
		Dial: func(network, addr string, timeout time.Duration) (net.Conn, error) {
			c, err := net.DialTimeout(network, addr, timeout)
			if err != nil {
				return nil, err
			}
			return &watchedConn{Conn: c, w: w}, nil
		},
	})
	return w
}

type watchedConn struct {
	net.Conn
	w *watchedShipper
}

func (c *watchedConn) Read(p []byte) (int, error) {
	c.w.observe()
	n, err := c.Conn.Read(p)
	c.w.mu.Lock()
	c.w.lastRead = time.Now()
	c.w.mu.Unlock()
	return n, err
}

// observe stamps every chunk acknowledged since the last call. It takes
// the Shipper's lock (Stats), so it runs only from Read — which the
// Shipper calls unlocked — never from Close, which it calls locked. The
// Shipper dials on its first Ship, after newWatchedShipper has returned.
func (w *watchedShipper) observe() {
	acked := w.Stats().AckedSegments
	w.mu.Lock()
	for w.acked < acked {
		w.ackTimes = append(w.ackTimes, w.lastRead)
		w.acked++
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// waitWindow blocks until fewer than window of the sent chunks are
// unacknowledged — the closed loop's bound on chunks in flight.
func (w *watchedShipper) waitWindow(sent uint64, window int) {
	w.mu.Lock()
	for sent-w.acked >= uint64(window) {
		w.cond.Wait()
	}
	w.mu.Unlock()
}

// waitAcked blocks until n chunks are acknowledged or the deadline
// passes; it reports whether they all were.
func (w *watchedShipper) waitAcked(n uint64, deadline time.Duration) bool {
	timer := time.AfterFunc(deadline, func() {
		w.mu.Lock()
		w.cond.Broadcast()
		w.mu.Unlock()
	})
	defer timer.Stop()
	end := time.Now().Add(deadline)
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.acked < n && time.Now().Before(end) {
		w.cond.Wait()
	}
	return w.acked >= n
}

// ackedCount is how many chunks have been acknowledged so far.
func (w *watchedShipper) ackedCount() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.acked
}

// acks returns when each chunk so far was acknowledged, in chunk order.
func (w *watchedShipper) acks() []time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]time.Time(nil), w.ackTimes...)
}
