package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"tempest/internal/sensors"
	"tempest/internal/thermal"
)

// thermalPostPass replays every node's activity timeline through its RC
// model and records quantised sensor samples into the node's trace at the
// tempd rate. It returns the (shared) sensor label layout.
//
// The pass is event-driven: the thermal model is stepped exactly between
// utilisation changes and sample instants, so a 10 ms function is charged
// 10 ms of heat, not a rounded grid cell.
func (c *Cluster) thermalPostPass(makespan time.Duration) ([]string, error) {
	interval := time.Duration(float64(time.Second) / c.cfg.SampleRateHz)
	var labels []string

	for n := 0; n < c.cfg.Nodes; n++ {
		cpu, err := thermal.NewCPU(c.params[n])
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d thermal model: %w", n, err)
		}
		var mu sync.Mutex
		prov := sensors.NewSimProvider(cpu, &mu, fmt.Sprintf("node%d", n))
		prov.QuantC = c.cfg.SensorQuantC
		reg := sensors.NewRegistry(prov)
		if err := reg.Discover(); err != nil {
			return nil, fmt.Errorf("cluster: node %d sensors: %w", n, err)
		}
		tr := c.tracers[n]
		nodeLabels := make([]string, 0, reg.Len())
		for i, s := range reg.Sensors() {
			nodeLabels = append(nodeLabels, s.Label())
			tr.MarkerAt(fmt.Sprintf("sensor:%d:%s", i, s.Label()), 0)
		}
		if n == 0 {
			labels = nodeLabels
		}

		// Per-core segment streams for this node.
		coreSegs := make([][]Segment, c.cfg.RanksPerNode)
		for local := 0; local < c.cfg.RanksPerNode; local++ {
			g := n*c.cfg.RanksPerNode + local
			coreSegs[local] = c.ranks[g].Segments()
		}
		coreIdx := make([]int, c.cfg.RanksPerNode)

		// Build the union of event instants: segment boundaries plus the
		// sampling grid plus the makespan itself.
		instants := map[time.Duration]struct{}{0: {}, makespan: {}}
		for _, segs := range coreSegs {
			for _, s := range segs {
				if s.Start <= makespan {
					instants[s.Start] = struct{}{}
				}
				if s.End <= makespan {
					instants[s.End] = struct{}{}
				}
			}
		}
		for t := time.Duration(0); t <= makespan; t += interval {
			instants[t] = struct{}{}
		}
		times := make([]time.Duration, 0, len(instants))
		for t := range instants {
			times = append(times, t)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

		setUtils := func(t time.Duration) error {
			for core := 0; core < c.cfg.RanksPerNode; core++ {
				segs := coreSegs[core]
				i := coreIdx[core]
				for i < len(segs) && segs[i].End <= t {
					i++
				}
				coreIdx[core] = i
				util := UtilIdle
				if i < len(segs) && segs[i].Start <= t {
					util = segs[i].Util
				}
				if err := cpu.SetCoreUtilization(core, util); err != nil {
					return err
				}
			}
			return nil
		}

		cur := time.Duration(0)
		if err := setUtils(0); err != nil {
			return nil, err
		}
		for _, t := range times {
			if dt := t - cur; dt > 0 {
				if err := cpu.Step(dt); err != nil {
					return nil, err
				}
				cur = t
			}
			if err := setUtils(t); err != nil {
				return nil, err
			}
			if t%interval == 0 || t == makespan {
				vals, err := reg.ReadAll()
				if err != nil {
					return nil, fmt.Errorf("cluster: node %d sample at %v: %w", n, t, err)
				}
				for sid, v := range vals {
					tr.SampleAt(uint32(sid), v, t)
				}
			}
		}
	}
	return labels, nil
}
