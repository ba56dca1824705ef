package collect

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"tempest/internal/faultinject"
	"tempest/internal/hotspot"
	"tempest/internal/parser"
	"tempest/internal/trace"
)

// TestChaosShipByteIdenticalToOfflineParse is the fleet-mode end-to-end
// guarantee under seeded link chaos: three nodes ship their traces
// through connections that refuse to come up, die mid-stream and tear
// frames, and once every shipper's queue flushes, each node's collector
// profile must render byte-identical to an offline parse of the same
// trace — the live path may lose connections, never data.
func TestChaosShipByteIdenticalToOfflineParse(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c, addr := startCollector(t, Options{})

			traces := []*trace.Trace{
				buildTrace(t, 1, []string{"compute", "exchange"}, 50),
				buildTrace(t, 2, []string{"compute", "io", "reduce"}, 70),
				buildTrace(t, 3, []string{"idle_wait", "compute"}, 40),
			}
			shippers := make([]*Shipper, len(traces))
			for i, tr := range traces {
				plan := faultinject.NewPlan(seed + int64(i))
				dial := faultinject.FaultyDialer(plan, faultinject.ConnFaults{
					RefuseFirst:      2,
					CloseAfterWrites: 3,
					PartialWriteRate: 0.15,
					Sleep:            func(time.Duration) {},
				}, nil)
				shippers[i] = NewShipper(addr, tr.NodeID, tr.Rank, ShipperOptions{
					Dial:            dial,
					DialBackoffBase: time.Millisecond,
					DialBackoffMax:  5 * time.Millisecond,
					FlushTimeout:    30 * time.Second,
				})
			}
			var reconnects, resends uint64
			for i, tr := range traces {
				shipTrace(t, shippers[i], tr, 5)
			}
			for i := range shippers {
				if err := shippers[i].Close(); err != nil {
					t.Fatalf("node %d Close: %v", traces[i].NodeID, err)
				}
				st := shippers[i].Stats()
				if st.DroppedSegments != 0 {
					t.Fatalf("node %d dropped %d segments despite clean Close", traces[i].NodeID, st.DroppedSegments)
				}
				reconnects += st.Reconnects
				resends += st.Resends
			}
			// CloseAfterWrites=3 guarantees the links actually died: a run
			// with zero reconnects would mean the chaos never engaged.
			if reconnects == 0 {
				t.Error("chaos plan produced no reconnects — faults not exercised")
			}

			for _, tr := range traces {
				np, err := c.NodeProfile(tr.NodeID)
				if err != nil {
					t.Fatalf("node %d: %v", tr.NodeID, err)
				}
				got := renderNode(t, np)
				want := renderNode(t, offlineNodeProfile(t, tr, parser.Fahrenheit))
				if got != want {
					t.Errorf("node %d profile diverged from offline parse after chaos (reconnects=%d resends=%d):\n--- live ---\n%s--- offline ---\n%s",
						tr.NodeID, reconnects, resends, got, want)
				}
			}

			// Dead links resend whole chunks in sequence: nothing may land
			// behind a builder's fold boundary.
			for _, st := range c.Nodes() {
				if st.LateEvents != 0 {
					t.Errorf("node %d: %d late events after chaos", st.NodeID, st.LateEvents)
				}
			}

			// The fleet hot-spot ranking must equal internal/hotspot run
			// over the offline-parsed profiles of the same traces.
			offline := &parser.Profile{Unit: parser.Fahrenheit}
			for _, tr := range traces {
				offline.Nodes = append(offline.Nodes, *offlineNodeProfile(t, tr, parser.Fahrenheit))
			}
			wantHF, err := hotspot.HotFunctions(offline, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(wantHF) > 5 {
				wantHF = wantHF[:5]
			}
			resp, err := c.Hotspots(0, 5)
			if err != nil {
				t.Fatal(err)
			}
			gotHF := make([]hotspot.FunctionHeat, len(resp.Functions))
			for i, f := range resp.Functions {
				gotHF[i] = hotspot.FunctionHeat{Node: f.Node, Name: f.Name, AvgTemp: f.AvgTemp, MaxTemp: f.MaxTemp, TotalTimeS: f.TotalTimeS, Score: f.Score}
			}
			if !reflect.DeepEqual(gotHF, wantHF) {
				t.Errorf("live top-5 differs from offline hotspot ranking:\n got %+v\nwant %+v", gotHF, wantHF)
			}

			// And the HTTP surface serves the same answer.
			srv := httptest.NewServer(c.Handler())
			defer srv.Close()
			res, err := srv.Client().Get(srv.URL + "/api/hotspots?k=5")
			if err != nil {
				t.Fatal(err)
			}
			defer res.Body.Close()
			if res.StatusCode != 200 {
				t.Fatalf("/api/hotspots status %d", res.StatusCode)
			}
		})
	}
}
