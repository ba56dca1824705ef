package collect

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tempest/internal/trace"
)

// TestNodeProfileCostIndependentOfSiblings: a one-node query snapshots
// one node. It used to clone and finish every Builder on the shard and
// throw all but one away, so /api/profile/{node} cost — and held the
// shard for — time in proportion to every sibling's history.
func TestNodeProfileCostIndependentOfSiblings(t *testing.T) {
	allocs := func(siblings int) float64 {
		c := New(Options{Shards: 1, Logger: quietLogger()})
		defer c.Close()
		for id := uint32(1); id <= uint32(1+siblings); id++ {
			if err := c.IngestTrace(buildTrace(t, id, []string{"a", "b"}, 200)); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := c.NodeProfile(1); err != nil {
				t.Fatal(err)
			}
		})
	}
	alone, crowded := allocs(0), allocs(32)
	if crowded > 2*alone {
		t.Fatalf("NodeProfile allocates %.0f times with 32 sibling nodes on the shard, %.0f with none", crowded, alone)
	}
}

// TestCloseUnderLoad lands Close in the middle of four shipping
// connections and eight goroutines running every public query: nothing
// panics or deadlocks, every call gives an answer or errCollectorClosed,
// and afterwards nobody is counted as waiting on a shard. /metrics is
// among the queries because rendering it holds the registry's lock while
// it reads each shard's gauge.
func TestCloseUnderLoad(t *testing.T) {
	const nodes, queriers = 4, 8
	c := New(Options{Shards: 2, StoreDir: t.TempDir(), Logger: quietLogger()})
	for id := uint32(1); id <= nodes; id++ {
		if err := c.IngestTrace(buildTrace(t, id, []string{"f"}, 10)); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(ln)
	payload, _, err := encodeChunk([]trace.Event{{Kind: trace.KindSample, ValueC: 41, TS: time.Second}}, trace.NewSymTab(), 0)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for id := uint32(1); id <= nodes; id++ {
		wg.Add(1)
		go func() { // ships until Close tears the connection down
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			if err := writeHello(conn, hello{NodeID: id}); err != nil {
				return
			}
			for {
				df, _, err := readDown(conn, nil)
				if err != nil {
					return
				}
				if err := writeFrame(conn, df.next, frameData, payload); err != nil {
					return
				}
			}
		}()
	}
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func() { // queries until the collector says it is closed
			defer wg.Done()
			node := uint32(1 + q%nodes)
			for {
				c.Nodes()
				c.Profile()
				c.PolicyStatuses()
				if err := c.WriteMetrics(io.Discard); err != nil {
					t.Error(err)
				}
				_, err := c.Hotspots(0, 5)
				errs := []error{err}
				_, err = c.NodeProfile(node)
				errs = append(errs, err)
				_, _, _, err = c.CritPath(node)
				errs = append(errs, err)
				_, err = c.WindowHotspots(0, 5, 0, math.MaxInt64)
				errs = append(errs, err)
				_, _, _, err = c.WindowSeries(node, 0, math.MaxInt64)
				errs = append(errs, err)
				_, err = c.NodeWindows(node)
				errs = append(errs, err)
				closed := false
				for i, err := range errs {
					if errors.Is(err, errCollectorClosed) {
						closed = true
					} else if err != nil {
						t.Errorf("query %d on node %d: %v", i, node, err)
						return
					}
				}
				if closed {
					return
				}
			}
		}()
	}

	for c.Metrics().Segments() < nodes+40 { // the shippers are mid-stream
		time.Sleep(time.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("shippers or queriers still running 30s after Close")
	}
	if err := c.IngestTrace(buildTrace(t, 9, []string{"f"}, 2)); !errors.Is(err, errCollectorClosed) {
		t.Fatalf("IngestTrace after Close: %v", err)
	}
	var metrics bytes.Buffer
	if err := c.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	for i := range c.shards {
		if want := fmt.Sprintf("tempest_collect_shard_queue_depth{shard=%q} 0\n", fmt.Sprint(i)); !strings.Contains(metrics.String(), want) {
			t.Errorf("after Close /metrics lacks %q:\n%s", want, metrics.String())
		}
	}
}
