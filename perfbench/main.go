// Command perfbench is the repository's benchmark. It measures the
// simulator and the sweep service from outside, timing calls into each
// layer's public functions, checks every simulated result bit for bit
// against recorded references, and counts failed operations against
// attempted ones.
//
//	perfbench --workload paper_sweep|cluster_10k|simd_mixed --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The lines before it
// print every metric with its unit and sample count, each failure's
// cause, and (traced) the per-layer self-time table. Traced runs also
// write their spans to .bench_build/perfbench/. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or the service sees;
// every workload reports each of them (see README.md for what an
// operation and a pass are on each workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"op_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_mem_mb", "MB"},
}

// perLayer are the traced run's per-layer metrics. A layer a workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"topology.compile_s", "s"},
	{"memsim.new_s", "s"},
	{"memsim.copy_churn_ns", "ns"},
	{"memsim.copies", "count"},
	{"memsim.bytes_copied", "bytes"},
	{"memsim.ns_per_copy", "ns"},
	{"sim.schedule_fire_ns", "ns"},
	{"sim.park_wake_ns", "ns"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"bench.cell_ms.bcast", "ms"},
	{"bench.cell_ms.gather", "ms"},
	{"bench.cell_ms.scatter", "ms"},
	{"bench.cell_ms.allgather", "ms"},
	{"bench.cell_ms.alltoall", "ms"},
	{"bench.cell_p90_ms", "ms"},
	{"bench.first_cell_s", "s"},
	{"bench.warm_cell_s", "s"},
	{"bench.shard_leases", "count"},
	{"bench.arena_bytes", "bytes"},
	{"bench.memo_hit_ratio", "ratio"},
	{"bench.memo_deduped", "count"},
	{"serve.lru_hit_ratio", "ratio"},
	{"serve.sim_cells", "count"},
	{"serve.sim_mean_ms", "ms"},
	{"serve.batch_mean_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.boot_ms", "ms"},
	{"serve.req_p99_ms", "ms"},
	{"serve.share_lru", "ratio"},
	{"serve.share_disk", "ratio"},
	{"serve.share_singleflight", "ratio"},
	{"serve.share_sim", "ratio"},
	{"go.gc_cpu_s", "s"},
	{"go.alloc_objects", "count"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
	{"self_s.pass", "s"},
	{"self_s.child", "s"},
	{"self_s.topology.CompileCluster", "s"},
	{"self_s.memsim.New", "s"},
	{"self_s.bench.MeasureCtx", "s"},
	{"self_s.mpi.Run", "s"},
	{"self_s.http.roundtrip", "s"},
	{"self_s.serve.stats", "s"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"paper_sweep": runPaper,
	"cluster_10k": runCluster,
	"simd_mixed":  runSimd,
}

// outDir holds everything a run writes: spans and the simd_mixed memo
// directories. It is relative to the working directory, which is the
// repository root.
const outDir = ".bench_build/perfbench"

// run is one benchmark invocation's state and tallies.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	root     *tracer   // every span of a traced run
	tr       *tracer   // root while a traced pass runs, else nil
	passSpan int       // the running pass's span id, parent of its spans
	peaks    []float64 // each pass's peak heap, MiB

	attempted, failed int
	mismatch          bool
	causes            map[string]int

	e2e    map[string]float64
	counts map[string]int // samples behind each reported metric
	layer  map[string]float64
	notes  []string // extra report lines
}

// attempt counts one operation; a non-empty cause marks it failed.
// Reference mismatches also clear the correctness verdict.
func (r *run) attempt(cause string, mismatch bool) {
	r.attempted++
	if cause == "" {
		return
	}
	r.failed++
	r.causes[cause]++
	if mismatch {
		r.mismatch = true
	}
}

func (r *run) set(name string, v float64, n int) {
	r.e2e[name] = v
	r.counts[name] = n
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// passLoop calls pass until the run's time is used: at least one group
// of passes (two when traced), then again while the elapsed time plus
// the median pass so far still fits. Traced runs trace every other group
// of passes; the gap between traced and untraced passes, compared pass
// by pass within the group, is the tracing overhead. A pass reporting
// !clean (one that retried a crashed attempt) is left out of that
// comparison. Each pass starts
// from a collected heap, so garbage left by the previous one neither
// lands its collection cost in this pass nor raises its heap peak.
func (r *run) passLoop(group int, pass func(i int) (clean bool, err error)) ([]float64, error) {
	start := time.Now()
	var durs []float64
	plain, traced := map[string][]float64{}, map[string][]float64{}
	minPasses := group
	if r.traced {
		minPasses = 2 * group
	}
	for i := 0; ; i++ {
		if i >= minPasses && time.Since(start).Seconds()+median(durs) > r.seconds {
			break
		}
		runtime.GC()
		on := r.traced && (i/group)%2 == 1
		if on {
			r.tr = r.root
		}
		id := r.tr.begin("pass", 0)
		r.passSpan = id
		peak := startHeapPeak()
		t0 := time.Now()
		clean, err := pass(i)
		d := time.Since(t0).Seconds()
		r.peaks = append(r.peaks, peak.stop())
		r.tr.end(id)
		r.tr = nil
		if err != nil {
			return nil, err
		}
		durs = append(durs, d)
		k := strconv.Itoa(i % group)
		if !clean {
			continue
		}
		if on {
			traced[k] = append(traced[k], d)
		} else {
			plain[k] = append(plain[k], d)
		}
	}
	if r.traced {
		r.layer["trace.overhead_ratio"] = sumOfMedians(traced)/sumOfMedians(plain) - 1
	}
	return durs, nil
}

func main() {
	workload := flag.String("workload", "", "workload: paper_sweep, cluster_10k or simd_mixed")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 30, "measurement time")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	child := flag.String("child", "", "internal: run one cluster_10k cell attempt and print its result")
	record := flag.String("record", "", "write the correctness references into this directory and exit")
	flag.Parse()

	var err error
	switch {
	case *child != "":
		err = runChild(*child, *traceFlag == 1)
	case *record != "":
		err = recordRefs(*record)
	default:
		err = benchmark(*workload, *seed, *seconds, *traceFlag == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchmark(workload string, seed int64, seconds float64, traced bool) error {
	fn, ok := workloads[workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(names, ", "))
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	r := &run{
		workload: workload, seed: seed, seconds: seconds, traced: traced,
		causes: map[string]int{}, e2e: map[string]float64{}, counts: map[string]int{},
		layer: map[string]float64{},
	}
	if traced {
		r.root = &tracer{}
	}
	if err := fn(r); err != nil {
		return err
	}
	if traced {
		spans := r.root.snapshot()
		r.layer["trace.spans"] = float64(len(spans))
		rows := selfTimes(spans)
		for _, row := range rows {
			if isLayer("self_s." + row.Name) {
				r.layer["self_s."+row.Name] = row.Self
			}
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
		if err := r.root.write(path); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(spans), path)
		fmt.Printf("%-32s %8s %12s %12s\n", "layer (span)", "count", "total_s", "self_s")
		for _, row := range rows {
			fmt.Printf("%-32s %8d %12.6f %12.6f\n", row.Name, row.Count, row.Total, row.Self)
		}
	}
	return r.report()
}

func isLayer(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable lines and then the one-line JSON
// result. A reported end-to-end metric that could not be measured (no
// sample) makes the run incorrect rather than silently 0.
func (r *run) report() error {
	defs, vals := endToEnd, r.e2e
	if r.traced {
		defs, vals = perLayer, r.layer
	}
	correct := !r.mismatch
	out := map[string]metricOut{}
	fmt.Printf("workload %s seed %d traced %t\n", r.workload, r.seed, r.traced)
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && r.traced {
			v, ok = 0, true // layer not exercised by this workload
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			correct = false
			fmt.Printf("  %-32s unmeasured\n", d.name)
			v = 0
		} else if n, has := r.counts[d.name]; has {
			fmt.Printf("  %-32s %14.6f %-6s (n=%d)\n", d.name, v, d.unit, n)
		} else {
			fmt.Printf("  %-32s %14.6f %s\n", d.name, v, d.unit)
		}
		out[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("failed_ratio %.6f (%d of %d operations)\n", ratio, r.failed, r.attempted)
	causes := make([]string, 0, len(r.causes))
	for c := range r.causes {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	for _, c := range causes {
		fmt.Printf("  failure x%d: %s\n", r.causes[c], c)
	}
	if r.attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	fmt.Printf("correct %t (bit-exact against refs/; the model itself is not validated against hardware)\n", correct)
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
