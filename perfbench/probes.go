package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/memsim"
	"repro/internal/mpi"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// goCounters are the Go runtime's cumulative GC and allocation counters.
type goCounters struct {
	GCCPU    float64 `json:"gc_cpu_s"`
	Allocs   float64 `json:"alloc_objects"`
	GCCycles float64 `json:"gc_cycles"`
}

func readGo() goCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return goCounters{GCCPU: val(s[0].Value), Allocs: val(s[1].Value), GCCycles: val(s[2].Value)}
}

func (a goCounters) sub(b goCounters) goCounters {
	return goCounters{a.GCCPU - b.GCCPU, a.Allocs - b.Allocs, a.GCCycles - b.GCCycles}
}

func (a goCounters) add(b goCounters) goCounters {
	return goCounters{a.GCCPU + b.GCCPU, a.Allocs + b.Allocs, a.GCCycles + b.GCCycles}
}

// setGo reports counters accumulated over passes as per-pass figures.
func (r *run) setGo(c goCounters, passes float64) {
	r.layer["go.gc_cpu_s"] = c.GCCPU / passes
	r.layer["go.alloc_objects"] = c.Allocs / passes
	r.layer["go.gc_cycles"] = c.GCCycles / passes
}

// heapPeak samples the Go GC's heap goal — the live heap after the last
// collection times (1 + GOGC/100), the size the heap may reach before the
// next one — every millisecond, keeping the largest.
type heapPeak struct {
	quit chan struct{}
	peak chan float64
}

func heapGoal() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{quit: make(chan struct{}), peak: make(chan float64)}
	go func() {
		peak := heapGoal()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, heapGoal())
			case <-h.quit:
				h.peak <- max(peak, heapGoal())
				return
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak heap goal in MiB.
func (h *heapPeak) stop() float64 {
	close(h.quit)
	return <-h.peak / (1 << 20)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %v", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// micro times fn(n) reps times and returns the median nanoseconds per op.
func micro(reps, n int, fn func(n int) error) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(n); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(xs), nil
}

// scheduleFire is the engine's bare event lifecycle, n events.
func scheduleFire(n int) error {
	e := sim.NewEngine()
	k := 0
	var tick func()
	tick = func() {
		k++
		if k < n {
			e.Schedule(1e-9, tick)
		}
	}
	e.Schedule(1e-9, tick)
	return e.Run()
}

// parkWake is n process handoffs: a parked process woken by another.
func parkWake(n int) error {
	e := sim.NewEngine()
	waiter := e.Spawn("waiter", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Park("bench")
		}
	})
	e.Spawn("waker", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			waiter.Wake()
			p.Wait(1e-9)
		}
	})
	return e.Run()
}

// copyChurn is n 64 KiB copies on IG against a second copy stream that
// keeps the shared links loaded: flow start, repricing, completion.
func copyChurn(n int) error {
	m := topology.IG()
	e := sim.NewEngine()
	net := memsim.New(e, m, nil)
	const mb = 1 << 20
	src, dst := net.Alloc(m.Domains[0], mb, false), net.Alloc(m.Domains[1], mb, false)
	src2, dst2 := net.Alloc(m.Domains[2], mb, false), net.Alloc(m.Domains[3], mb, false)
	e.Spawn("bg", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			net.Copy(p, m.Cores[12], dst2.View(0, 64<<10), src2.View(0, 64<<10))
		}
	})
	e.Spawn("fg", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			net.Copy(p, m.Cores[0], dst.View(0, 64<<10), src.View(0, 64<<10))
		}
	})
	return e.Run()
}

// probeLayers runs the traced run's layer probes: the engine and memory
// system micro-benchmarks, then one broadcast of size bytes replayed with
// mpi.Run on an engine and memory system the benchmark builds itself, so
// memsim.New's cost and the engine's event count are read directly.
func (r *run) probeLayers(m *topology.Machine, comp bench.Comp, size int64) error {
	var err error
	if r.layer["sim.schedule_fire_ns"], err = micro(5, 200000, scheduleFire); err != nil {
		return err
	}
	if r.layer["sim.park_wake_ns"], err = micro(5, 50000, parkWake); err != nil {
		return err
	}
	if r.layer["memsim.copy_churn_ns"], err = micro(5, 5000, copyChurn); err != nil {
		return err
	}
	tr := r.root
	stats := &trace.Stats{}
	eng := sim.NewEngine()
	id := tr.begin("memsim.New", 0)
	t0 := time.Now()
	net := memsim.New(eng, m, stats)
	r.layer["memsim.new_s"] = time.Since(t0).Seconds()
	tr.end(id)
	net.SetClusterIslands(comp.Cluster)
	id = tr.begin("mpi.Run", 0)
	t0 = time.Now()
	_, _, err = mpi.Run(mpi.Options{
		Machine: m, BTL: comp.BTL, KnemMin: comp.KnemMin,
		SHM:  shm.Config{FragSize: 128 << 10},
		Coll: comp.New, Stats: stats, Engine: eng, Net: net,
	}, func(rk *mpi.Rank) {
		buf := rk.Alloc(size).Whole()
		rk.Barrier()
		rk.Bcast(buf, 0)
	})
	wall := time.Since(t0)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("replay %s/%s bcast %d: %w", m.Name, comp.Name, size, err)
	}
	r.layer["sim.events"] = float64(eng.Fired())
	r.layer["sim.ns_per_event"] = float64(wall.Nanoseconds()) / float64(eng.Fired())
	return nil
}
