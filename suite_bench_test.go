// suite_bench_test.go profiles the thermal signature of every NAS kernel
// — the paper's broader §4 claim that Tempest characterises "several
// classes of parallel applications", with workload type visibly driving
// the thermals (EP hot end-to-end, FT cooled by its all-to-all phases,
// LU staggered by its pipeline).
package tempest

import (
	"testing"

	"tempest/internal/cluster"
	"tempest/internal/nas"
	"tempest/internal/parser"
)

// kernelSignature runs one kernel on the standard 4-node cluster and
// returns (avg °F, max °F, comm share %) of node 0's CPU sensor.
func kernelSignature(b *testing.B, body func(rc *cluster.Rank) error) (avg, maxV, commPct float64) {
	b.Helper()
	c, err := cluster.New(cluster.Config{
		Nodes: 4, RanksPerNode: 1, Seed: 7, Cost: nas.FTCost(), Heterogeneous: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := c.Run(body)
	if err != nil {
		b.Fatal(err)
	}
	p, err := parser.ParseAll(res.Traces, parser.Options{})
	if err != nil {
		b.Fatal(err)
	}
	np := &p.Nodes[0]
	mainP, ok := np.Function("main")
	if !ok {
		b.Fatal("main missing")
	}
	avg, maxV = mainP.Sensors[0].Avg, mainP.Sensors[0].Max
	var comm float64
	for _, name := range []string{"MPI_Alltoall", "MPI_Allreduce", "MPI_Allgather", "MPI_Barrier", "MPI_Recv", "MPI_Send", "MPI_Bcast", "MPI_Reduce"} {
		if fp, ok := np.Function(name); ok {
			comm += fp.TotalTime.Seconds()
		}
	}
	commPct = comm / mainP.TotalTime.Seconds() * 100
	return avg, maxV, commPct
}

// BenchmarkSuite_ThermalSignatures reproduces the cross-kernel contrast:
// communication-heavy codes run cooler than compute-bound ones.
func BenchmarkSuite_ThermalSignatures(b *testing.B) {
	kernels := []string{"ft", "bt", "sp", "lu", "ep", "cg", "mg", "is"}
	sig := map[string][3]float64{}
	for i := 0; i < b.N; i++ {
		for _, k := range kernels {
			avg, maxV, comm := kernelSignature(b, func(rc *cluster.Rank) error {
				_, _, err := nas.Run(rc, k, nas.ClassS)
				return err
			})
			sig[k] = [3]float64{avg, maxV, comm}
		}
		// Cross-kernel shape claims:
		// BT (compute-bound block solves) must peak hotter than FT
		// (half its time in all-to-all), and FT must be far more
		// communication-heavy than BT.
		if sig["bt"][1] <= sig["ft"][1] {
			b.Fatalf("BT peak %.1f °F not above FT peak %.1f °F", sig["bt"][1], sig["ft"][1])
		}
		if sig["ft"][2] <= sig["bt"][2] {
			b.Fatalf("FT comm share %.0f%% not above BT's %.0f%%", sig["ft"][2], sig["bt"][2])
		}
	}
	for name, s := range sig {
		b.ReportMetric(s[1], name+"_peak_F")
	}
	b.ReportMetric(sig["ft"][2], "ft_comm_pct")
	b.ReportMetric(sig["bt"][2], "bt_comm_pct")
}
