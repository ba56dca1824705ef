package collect

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"tempest/instrument"
	"tempest/internal/faultinject"
)

// TestChaosControlLoopConvergesAndSurvivesRestart drives the full
// adaptive-sampling control loop through seeded link chaos: a shipper
// whose connections refuse to come up, die mid-stream and tear frames
// interleaves event batches with coarse bucket reports against a
// durable, policy-enabled collector. Dropped, duplicated or reordered
// control frames must never corrupt the forward stream (the profile
// stays byte-identical to an offline parse), the policy must still
// converge on the top-K functions, and a restarted collector must
// re-issue the same directive revision from its durable store.
func TestChaosControlLoopConvergesAndSurvivesRestart(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{StoreDir: dir, Policy: PolicyOptions{
				Enabled: true, TopK: 2, Interval: time.Millisecond,
			}}
			c, addr := startCollector(t, opts)

			plan := faultinject.NewPlan(seed)
			dial := faultinject.FaultyDialer(plan, faultinject.ConnFaults{
				RefuseFirst:      2,
				CloseAfterWrites: 3,
				PartialWriteRate: 0.15,
				Sleep:            func(time.Duration) {},
			}, nil)
			var mu sync.Mutex
			var last instrument.Directive
			s := NewShipper(addr, 11, 0, ShipperOptions{
				Dial:            dial,
				DialBackoffBase: time.Millisecond,
				DialBackoffMax:  5 * time.Millisecond,
				FlushTimeout:    30 * time.Second,
				OnControl: func(d instrument.Directive) {
					mu.Lock()
					last = d
					mu.Unlock()
				},
			})

			tr := buildTrace(t, 11, []string{"alpha", "beta"}, 40)
			report := []instrument.CoarseStat{
				{Name: "alpha", Calls: 100, Nanos: int64(50 * time.Millisecond)},
				{Name: "beta", Calls: 80, Nanos: int64(30 * time.Millisecond)},
				{Name: "gamma", Calls: 10, Nanos: int64(time.Millisecond)},
			}
			want := []string{"alpha", "beta"}

			// Interleave event batches with coarse reports until the shipper
			// has seen a directive nominating the two dominant functions.
			// Rounds run on the real clock (1 ms interval), so each report
			// can trigger one; chaos may delay convergence, never break it.
			deadline := time.Now().Add(30 * time.Second)
			converged := false
			next := 0
			for time.Now().Before(deadline) {
				if next < len(tr.Events) {
					end := next + 5
					if end > len(tr.Events) {
						end = len(tr.Events)
					}
					if err := s.Ship(tr.Events[next:end], tr.Sym); err != nil {
						t.Fatalf("Ship at %d: %v", next, err)
					}
					next = end
				}
				if err := s.ShipCoarse(report); err != nil {
					t.Fatalf("ShipCoarse: %v", err)
				}
				mu.Lock()
				got := funcNames(last)
				mu.Unlock()
				if reflect.DeepEqual(got, want) {
					converged = true
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			if !converged {
				mu.Lock()
				d := last
				mu.Unlock()
				t.Fatalf("policy never converged; last directive %+v", d)
			}
			for next < len(tr.Events) { // finish the event stream
				end := next + 5
				if end > len(tr.Events) {
					end = len(tr.Events)
				}
				if err := s.Ship(tr.Events[next:end], tr.Sym); err != nil {
					t.Fatalf("Ship at %d: %v", next, err)
				}
				next = end
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.DroppedSegments != 0 {
				t.Fatalf("dropped %d segments despite clean Close", st.DroppedSegments)
			}
			if st.Reconnects == 0 {
				t.Fatal("fault plan produced no reconnects; chaos not exercised")
			}

			// Control chaos must not have touched the forward stream.
			np, err := c.NodeProfile(11)
			if err != nil {
				t.Fatal(err)
			}
			wantRender := renderNode(t, offlineNodeProfile(t, tr, c.opts.Unit))
			if got := renderNode(t, np); got != wantRender {
				t.Fatalf("profile diverged under control chaos:\n got:\n%s\nwant:\n%s", got, wantRender)
			}
			if st := c.Nodes(); len(st) != 1 || st[0].LateEvents != 0 {
				t.Fatalf("node status %+v, want one node without late events", st)
			}

			sts := c.PolicyStatuses()
			if len(sts) != 1 {
				t.Fatalf("policy statuses = %d nodes, want 1", len(sts))
			}
			wantRev := sts[0].Rev
			if wantRev == 0 {
				t.Fatal("no directive revision issued")
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}

			// The reborn collector re-issues its predecessor's directive on
			// the reconnect handshake, recovered from the durable store.
			c2, addr2 := startCollector(t, opts)
			var mu2 sync.Mutex
			var reissued instrument.Directive
			s2 := NewShipper(addr2, 11, 0, ShipperOptions{
				FlushTimeout: 10 * time.Second,
				OnControl: func(d instrument.Directive) {
					mu2.Lock()
					reissued = d
					mu2.Unlock()
				},
			})
			// Any enqueue wakes the lazy dialer; the handshake resume cursor
			// retires it as already-acked history.
			if err := s2.Ship(tr.Events[:1], tr.Sym); err != nil {
				t.Fatal(err)
			}
			waitUntil := time.Now().Add(10 * time.Second)
			for s2.Stats().ControlFrames == 0 && time.Now().Before(waitUntil) {
				time.Sleep(time.Millisecond)
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			mu2.Lock()
			defer mu2.Unlock()
			if reissued.Rev != wantRev {
				t.Fatalf("restart re-issued rev %d, want %d", reissued.Rev, wantRev)
			}
			if got := funcNames(reissued); !reflect.DeepEqual(got, want) {
				t.Fatalf("restart re-issued detail set %v, want %v", got, want)
			}
			sts2 := c2.PolicyStatuses()
			if len(sts2) != 1 || sts2[0].Rev != wantRev {
				t.Fatalf("restored policy status = %+v, want rev %d", sts2, wantRev)
			}
		})
	}
}
