package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/topology"
	"repro/internal/trace"
)

// maxAttempts caps how often one cluster cell is tried in a row; every
// attempt counts, failed or not.
const maxAttempts = 12

// childTimeout bounds one child process; a hung child is killed and
// counted as failed.
const childTimeout = 150 * time.Second

// compileCluster10k compiles the 80-node x 128-core cluster (10,240
// ranks) behind one 12 GB/s switch: the shape of simbench's cluster_10k.
func compileCluster10k() (*topology.Cluster, error) {
	box := topology.Synthetic(topology.SyntheticSpec{
		Boards: 1, SocketsPerBoard: 16, CoresPerSocket: 8,
		BusBW: 35e9, LinkBW: 18e9,
		CacheSize: 32 << 20, CachePortBW: 60e9,
		Spec: topology.ManyCore(128).Spec,
	})
	cfg := topology.ClusterConfig{
		Name:   "simbench10k",
		Switch: &topology.SwitchSpec{Name: "tor", BW: 12e9, Lat: 2e-6},
	}
	for i := 0; i < 80; i++ {
		cfg.Nodes = append(cfg.Nodes, topology.NodeSpec{Name: fmt.Sprintf("n%d", i), Machine: "box"})
	}
	return topology.CompileCluster(cfg, func(string) (*topology.Machine, error) { return box, nil })
}

func clusterConfig(cl *topology.Cluster, c clusterCell) bench.Config {
	return bench.Config{Machine: cl.Global, Comp: bench.Hier(cl), Op: c.Op, Size: c.Size, Iters: 1, OffCache: true}
}

func clusterCellByName(name string) (clusterCell, bool) {
	for _, c := range clusterCellSet {
		if c.Name == name {
			return c, true
		}
	}
	return clusterCell{}, false
}

// childResult is what one cell attempt's process reports on stdout.
type childResult struct {
	CompileS  float64     `json:"compile_s"`
	ColdS     float64     `json:"cold_s"`
	WarmS     float64     `json:"warm_s"`
	RSSMB     float64     `json:"peak_rss_mb"`
	Seconds   float64     `json:"seconds"`
	Stats     trace.Stats `json:"stats"`
	Identical bool        `json:"identical"` // warm repeat equals the cold run
	Go        goCounters  `json:"go"`
	Leases    int64       `json:"shard_leases"`
	Arena     int64       `json:"arena_bytes"`
	Spans     []Span      `json:"spans,omitempty"`
}

// runChild is one cell attempt in a fresh process: compile the cluster,
// run the cell cold through bench.MeasureCtx (engines, nets and the
// cluster's route tables built from nothing), then repeat it warm. The
// process keeps the library defaults: GOMAXPROCS = CPUs, intra-cell
// parallel execution on.
func runChild(name string, traced bool) error {
	c, ok := clusterCellByName(name)
	if !ok {
		return fmt.Errorf("unknown cluster cell %q", name)
	}
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	go0 := readGo()
	ctx := context.Background()
	var out childResult

	id := tr.begin("topology.CompileCluster", 0)
	t0 := time.Now()
	cl, err := compileCluster10k()
	out.CompileS = time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return err
	}
	cfg := clusterConfig(cl, c)

	id = tr.begin("bench.MeasureCtx", 0)
	t0 = time.Now()
	cold, err := bench.MeasureCtx(ctx, cfg)
	out.ColdS = time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("bench.MeasureCtx", 0)
	t0 = time.Now()
	warm, err := bench.MeasureCtx(ctx, cfg)
	out.WarmS = time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return err
	}
	out.Seconds, out.Stats = cold.Seconds, cold.Stats
	out.Identical = cold.Seconds == warm.Seconds && reflect.DeepEqual(cold.Stats, warm.Stats)
	if out.RSSMB, err = peakRSSMB(); err != nil {
		return err
	}
	out.Go = readGo().sub(go0)
	s := bench.Shards()
	out.Leases, out.Arena = s.Leases, s.ArenaBytes
	out.Spans = tr.snapshot()
	return json.NewEncoder(os.Stdout).Encode(&out)
}

// attemptChild runs one cell attempt as a child process. A non-zero exit
// returns the child's first "fatal error:" or "panic:" line (else its
// last stderr line) as the cause.
func attemptChild(name string, traced bool) (childResult, float64, string) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, 0, err.Error()
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	tflag := "0"
	if traced {
		tflag = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--child", name, "--trace", tflag)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err = cmd.Run()
	wall := time.Since(t0).Seconds()
	if err != nil {
		return childResult{}, wall, fmt.Sprintf("cluster_10k %s: %v: %s", name, err, crashLine(stderr.String()))
	}
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return childResult{}, wall, fmt.Sprintf("cluster_10k %s: bad child output: %v", name, err)
	}
	return res, wall, ""
}

// crashLine picks the line of a child's stderr that names the failure.
func crashLine(stderr string) string {
	lines := strings.Split(strings.TrimSpace(stderr), "\n")
	for _, l := range lines {
		if strings.HasPrefix(l, "fatal error:") || strings.HasPrefix(l, "panic:") {
			return l
		}
	}
	return lines[len(lines)-1]
}

// tryCell attempts one cluster cell in fresh child processes until one
// completes with the reference result, at most maxAttempts times. Every
// attempt is counted; a crash is retried, a wrong result is not.
func (r *run) tryCell(refs refTable, name string) (childResult, float64, bool) {
	for a := 0; a < maxAttempts; a++ {
		id := r.tr.begin("child", r.passSpan)
		res, wall, cause := attemptChild(name, r.tr != nil)
		r.tr.end(id)
		if cause == "" && !res.Identical {
			cause = fmt.Sprintf("cluster_10k %s: warm repeat differs from the cold run", name)
		}
		if cause != "" {
			r.attempt(cause, false)
			continue
		}
		if cause = refs.check(name, res.Seconds, &res.Stats); cause != "" {
			r.attempt(cause, true)
			return res, wall, false
		}
		r.attempt("", false)
		r.tr.adopt(res.Spans, id)
		return res, wall, true
	}
	return childResult{}, 0, false
}

// runCluster is the 10,240-rank cluster, its two cells in a seeded
// order, round after round; every attempt runs in its own process. An
// operation is one cell attempt; its latency is the cold cell time. A
// pass here is one cell, so the run's time holds as many cells as fit;
// the pass over the fixed list is reported as the sum of the two cells'
// median child wall times (process start, compile, cold and warm cell).
func runCluster(r *run) error {
	refs, err := loadRefs("cluster_10k")
	if err != nil {
		return err
	}
	cells := clusterCells(r.seed)
	var (
		keys                []string
		compile, cold, warm []float64
		rss                 []float64
		wall                = map[string][]float64{}
		coldByOp            = map[string][]float64{}
		copies, bytesCopied = map[string]float64{}, map[string]float64{}
		goTotal             goCounters
		leases, arena       float64
	)
	durs, err := r.passLoop(len(cells), func(i int) (bool, error) {
		c := cells[i%len(cells)]
		failed := r.failed
		res, secs, ok := r.tryCell(refs, c.Name)
		if !ok {
			return false, nil
		}
		keys = append(keys, c.Name)
		wall[c.Name] = append(wall[c.Name], secs)
		compile = append(compile, res.CompileS)
		cold = append(cold, res.ColdS)
		warm = append(warm, res.WarmS)
		rss = append(rss, res.RSSMB)
		coldByOp[string(c.Op)] = append(coldByOp[string(c.Op)], res.ColdS*1e3)
		copies[c.Name] = float64(res.Stats.Copies)
		bytesCopied[c.Name] = float64(res.Stats.BytesCopied)
		goTotal = goTotal.add(res.Go)
		leases += float64(res.Leases)
		arena = max(arena, float64(res.Arena))
		return r.failed == failed, nil
	})
	if err != nil {
		return err
	}
	rounds := float64(len(durs)) / float64(len(cells))
	sweep := sumOfMedians(wall)
	if len(wall) < len(cells) {
		sweep = math.NaN() // a cell never completed: no pass time to report
	}
	r.set("setup_s", median(compile), len(compile))
	r.set("sweep_s", sweep, len(keys))
	r.set("op_ms", perKeyMedianMean(keys, cold)*1e3, len(cold))
	r.set("ops_per_s", float64(len(cells))/sweep, len(keys))
	r.set("peak_mem_mb", perKeyMedianMean(keys, rss), len(rss))
	r.note("first_cell_s %.6f s, warm_cell_s %.6f s (n=%d; mean over the two cells of each cell's median)",
		perKeyMedianMean(keys, cold), perKeyMedianMean(keys, warm), len(cold))

	var nCopies, nBytes float64
	for name := range copies {
		nCopies += copies[name]
		nBytes += bytesCopied[name]
	}
	r.layer["topology.compile_s"] = median(compile)
	r.layer["bench.first_cell_s"] = perKeyMedianMean(keys, cold)
	r.layer["bench.warm_cell_s"] = perKeyMedianMean(keys, warm)
	for op, xs := range coldByOp {
		r.layer["bench.cell_ms."+op] = median(xs)
	}
	r.layer["memsim.copies"] = nCopies
	r.layer["memsim.bytes_copied"] = nBytes
	r.layer["memsim.ns_per_copy"] = sweep * 1e9 / nCopies
	r.layer["bench.shard_leases"] = leases / rounds
	r.layer["bench.arena_bytes"] = arena
	r.setGo(goTotal, rounds)
	if r.traced {
		cl, err := compileCluster10k()
		if err != nil {
			return err
		}
		return r.probeLayers(cl.Global, bench.Hier(cl), 64*bench.KiB)
	}
	return nil
}
