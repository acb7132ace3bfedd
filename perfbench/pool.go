package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"likwid/internal/machine"
	"likwid/internal/monitor"
)

// valuePool holds the values fleet-push's agents ship: traces of the
// repository's perfgroup collector on simulated nodes, recorded the way
// `likwid-agent -a nehalemEP -g MEM_DP -raw -i 100ms -load stream:16`
// samples them (every hardware thread runs a STREAM task).  Each trace is
// one series' values over consecutive ticks: the group's derived metrics
// and raw event rates per thread, and the memory bandwidth per socket.
type valuePool struct {
	Seed   int64       `json:"seed"`
	Traces [][]float64 `json:"traces"`
}

const (
	poolArch     = "nehalemEP"
	poolGroup    = "MEM_DP"
	poolInterval = 100 * time.Millisecond
	poolFile     = "values.json"
	traceStride  = 97 // series of consecutive sources start this many traces apart
)

// value is the value of one generated point: source's series at tick, a
// pure function of the pool.  Each source (the backfill producer is -1)
// reads its own rotation of the traces, from a seed-derived start tick;
// a trace wraps around after its last tick.
func (p *valuePool) value(source, series, tick int) float64 {
	a := source + 1
	trace := p.Traces[(a*traceStride+series)%len(p.Traces)]
	off := int(unit(p.Seed, 11, a) * float64(len(trace)))
	return trace[(tick+off)%len(trace)]
}

// recordPool records ticks collector intervals on each of nodes simulated
// nodes (machine seeds derived from seed) and keeps every series the
// collector emitted at every tick.
func recordPool(seed int64, nodes, ticks int) (*valuePool, error) {
	p := &valuePool{Seed: seed}
	for n := 0; n < nodes; n++ {
		m, err := machine.NewNamed(poolArch, machine.Options{Seed: int64(mix64(uint64(seed)^uint64(n)) >> 1)})
		if err != nil {
			return nil, err
		}
		load, err := newStreamLoad(m)
		if err != nil {
			return nil, err
		}
		c, err := monitor.DefaultRegistry.Build("perfgroup", monitor.Config{
			Machine: m, Group: poolGroup, Interval: poolInterval, Advance: load.advance, RawEvents: true,
		})
		if err != nil {
			return nil, err
		}
		traces := map[monitor.Key][]float64{}
		var order []monitor.Key
		for t := 0; t < ticks; t++ {
			samples, err := c.Collect(context.Background())
			if err != nil {
				return nil, err
			}
			for _, s := range samples {
				k := monitor.Key{Metric: s.Metric, Scope: s.Scope, ID: s.ID}
				if _, ok := traces[k]; !ok && t == 0 {
					order = append(order, k)
				}
				traces[k] = append(traces[k], s.Value)
			}
		}
		if s, ok := c.(interface{ Stop() error }); ok {
			if err := s.Stop(); err != nil {
				return nil, err
			}
		}
		for _, k := range order {
			if tr := traces[k]; len(tr) == ticks {
				p.Traces = append(p.Traces, tr)
			}
		}
	}
	if len(p.Traces) == 0 {
		return nil, fmt.Errorf("the %s collector emitted no series", poolGroup)
	}
	return p, nil
}

func writePool(dir string, p *valuePool) error {
	data, err := json.Marshal(p)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, poolFile), data, 0o644)
}

func readPool(dir string) (*valuePool, error) {
	data, err := os.ReadFile(filepath.Join(dir, poolFile))
	if err != nil {
		return nil, err
	}
	p := &valuePool{}
	if err := json.Unmarshal(data, p); err != nil {
		return nil, err
	}
	if len(p.Traces) == 0 {
		return nil, fmt.Errorf("%s holds no traces", poolFile)
	}
	return p, nil
}

// streamLoad keeps one STREAM-like task busy on every hardware thread
// between collector reads, calibrated toward one interval of simulated
// work per tick: likwid-agent's `-load stream:N` driver with N threads.
type streamLoad struct {
	m           *machine.Machine
	works       []*machine.ThreadWork
	elemsPerSec float64
}

func newStreamLoad(m *machine.Machine) (*streamLoad, error) {
	l := &streamLoad{m: m, elemsPerSec: 1e8}
	perElem := machine.PerElem{
		Cycles: 1.0,
		Counts: machine.Counts{
			machine.EvInstr:         3,
			machine.EvFlopsPackedDP: 1,
			machine.EvLoads:         2,
			machine.EvStores:        1,
		},
		MemReadBytes: 16, MemWriteBytes: 8,
		Streams: 3, Vector: true,
	}
	for cpu := 0; cpu < m.OS.NumCPUs(); cpu++ {
		task := m.OS.Spawn(fmt.Sprintf("load-%d", cpu), nil)
		if err := m.OS.Pin(task, cpu); err != nil {
			return nil, err
		}
		l.works = append(l.works, &machine.ThreadWork{Task: task, PerElem: perElem})
	}
	return l, nil
}

func (l *streamLoad) advance(dt float64) {
	for _, w := range l.works {
		w.Elems, w.Done, w.FinishTime = l.elemsPerSec*dt, 0, 0
	}
	elapsed := l.m.RunPhase(l.works, 0)
	if elapsed < dt {
		l.m.RunIdle(dt-elapsed, 0)
	}
	if elapsed > 0 {
		l.elemsPerSec *= min(4, max(0.25, dt/elapsed))
	}
}
