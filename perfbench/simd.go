package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/serve"
	"repro/internal/topology"
)

// expectedBody builds the response body a batch must produce from the
// reference seconds — the /v1/cells document, or for /v1/sweep the NDJSON
// lines sorted by "i" followed by the done line — and returns its hash.
func expectedBody(refs refTable, b simdBatch) ([32]byte, error) {
	m := topology.ByName(b.Req.Machine)
	results := make([]serve.CellResult, len(b.Req.Cells))
	for i, c := range b.Req.Cells {
		key := cell{Machine: b.Req.Machine, Comp: c.Comp, Op: bench.Op(c.Op), Size: c.Size}.key()
		ref, ok := refs[key]
		if !ok {
			return [32]byte{}, fmt.Errorf("%s: no reference", key)
		}
		results[i] = serve.CellResult{
			Comp: c.Comp, Op: c.Op, Size: c.Size, NP: m.NCores(), Iters: c.Iters,
			OffCache: c.OffCache, Root: c.Root, Seconds: ref.Seconds,
		}
	}
	var buf bytes.Buffer
	if !b.Sweep {
		body, err := json.Marshal(&serve.BatchResponse{Machine: b.Req.Machine, Cells: len(results), Results: results})
		if err != nil {
			return [32]byte{}, err
		}
		buf.Write(body)
		buf.WriteByte('\n')
		return sha256.Sum256(buf.Bytes()), nil
	}
	enc := json.NewEncoder(&buf)
	for i, res := range results {
		if err := enc.Encode(&serve.SweepLine{I: i, CellResult: res}); err != nil {
			return [32]byte{}, err
		}
	}
	if err := enc.Encode(map[string]int{"done": len(results)}); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// sortedSweepHash hashes an NDJSON sweep body with its cell lines sorted
// by "i" (they stream in completion order) and the final line kept last.
func sortedSweepHash(body []byte) ([32]byte, error) {
	lines := bytes.SplitAfter(body, []byte("\n"))
	if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
		lines = lines[:n-1]
	}
	if len(lines) == 0 {
		return [32]byte{}, fmt.Errorf("empty sweep body")
	}
	cellsLines, last := lines[:len(lines)-1], lines[len(lines)-1]
	idx := make([]int, len(cellsLines))
	for k, l := range cellsLines {
		var v struct {
			I *int `json:"i"`
		}
		if err := json.Unmarshal(l, &v); err != nil || v.I == nil {
			return [32]byte{}, fmt.Errorf("sweep line %d has no index: %.80s", k, l)
		}
		idx[k] = *v.I
	}
	sort.Sort(byIndex{cellsLines, idx})
	h := sha256.New()
	for _, l := range cellsLines {
		h.Write(l)
	}
	h.Write(last)
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

type byIndex struct {
	lines [][]byte
	idx   []int
}

func (b byIndex) Len() int           { return len(b.lines) }
func (b byIndex) Less(i, j int) bool { return b.idx[i] < b.idx[j] }
func (b byIndex) Swap(i, j int) {
	b.lines[i], b.lines[j] = b.lines[j], b.lines[i]
	b.idx[i], b.idx[j] = b.idx[j], b.idx[i]
}

// post sends one batch and returns the hash of its body (sweep lines
// sorted), or a one-line failure cause.
func post(client *http.Client, base string, b simdBatch, payload []byte) ([32]byte, string) {
	path := "/v1/cells"
	if b.Sweep {
		path = "/v1/sweep"
	}
	resp, err := client.Post(base+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		return [32]byte{}, fmt.Sprintf("simd_mixed POST %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return [32]byte{}, fmt.Sprintf("simd_mixed POST %s: reading body: %v", path, err)
	}
	if resp.StatusCode/100 != 2 {
		return [32]byte{}, fmt.Sprintf("simd_mixed POST %s: status %d: %.120s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if !b.Sweep {
		return sha256.Sum256(body), ""
	}
	sum, err := sortedSweepHash(body)
	if err != nil {
		return sum, fmt.Sprintf("simd_mixed POST %s: %v", path, err)
	}
	return sum, ""
}

// linkDir recreates src's directory tree (the memo's shard directories)
// under dst with every file hard-linked, so a pass starts from the
// golden memo without rewriting it. The memo replaces entries by rename,
// never in place, so a pass cannot modify a golden file through a link.
func linkDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		return os.Link(p, filepath.Join(dst, rel))
	})
}

// server is one booted simd instance on a loopback port.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

// boot restarts the memo on dir and brings up serve.New(serve.Options{})
// behind a loopback http.Server, returning once GET /v1/stats answers
// 200.
func boot(dir string, client *http.Client) (*server, error) {
	bench.DisableCache()
	if err := bench.EnableCache(dir); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: serve.New(serve.Options{}), base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.done <- s.hs.Serve(ln) }()
	if _, err := s.stats(client); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) stats(client *http.Client) (serve.StatsResponse, error) {
	var st serve.StatsResponse
	resp, err := client.Get(s.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(bufio.NewReader(resp.Body)).Decode(&st)
}

// stop shuts the server down and waits for its Serve goroutine.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
}

// simdSetups is how many times a run writes the golden memo and boots a
// server on it; setup_s is their median.
const simdSetups = 15

// writeGolden simulates cells through the memo layer with dir as its
// disk directory, leaving one entry file per cell there.
func writeGolden(dir string, cells []cell) error {
	bench.DisableCache()
	if err := bench.EnableCache(dir); err != nil {
		return err
	}
	comps := paperComps()
	for _, c := range cells {
		cfg := bench.Config{Machine: topology.ByName(c.Machine), Comp: comps[c.Comp], Op: c.Op, Size: c.Size, Iters: 1, OffCache: true}
		if _, err := bench.MeasureCtx(context.Background(), cfg); err != nil {
			return err
		}
	}
	return nil
}

// runSimd drives the sweep service: two closed-loop clients post their
// seeded batches to a freshly booted server per pass. An operation is
// one HTTP request; a pass is both clients' batch lists, in the next of
// the seed's simdOrders orders.
func runSimd(r *run) error {
	refs, err := loadRefs("simd_cells")
	if err != nil {
		return err
	}
	plans := newSimdPlans(r.seed, simdOrders)
	type prepared struct {
		b       simdBatch
		payload []byte
		want    [32]byte
		cells   int
	}
	orders := make([][][]prepared, len(plans))
	for o, plan := range plans {
		orders[o] = make([][]prepared, len(plan.Clients))
		for c, list := range plan.Clients {
			for _, b := range list {
				payload, err := json.Marshal(&b.Req)
				if err != nil {
					return err
				}
				want, err := expectedBody(refs, b)
				if err != nil {
					return err
				}
				orders[o][c] = append(orders[o][c], prepared{b, payload, want, len(b.Req.Cells)})
			}
		}
	}

	tmp := filepath.Join(outDir, fmt.Sprintf("simd-%d", os.Getpid()))
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	// The run's memo files are deleted, and the deletion committed,
	// before the run exits rather than left to the file system while
	// whatever runs next measures its disk. Failures here cannot change
	// the run's results, which are final.
	defer func() {
		_ = os.RemoveAll(tmp)
		syscall.Sync()
	}()
	defer bench.DisableCache()
	newClient := func() (*http.Client, *http.Transport) {
		tp := &http.Transport{MaxIdleConnsPerHost: simdClients}
		return &http.Client{Transport: tp, Timeout: 60 * time.Second}, tp
	}

	// Set-up, several times: simulate the plan's disk cells into a fresh
	// golden memo through the memo layer itself, then boot a server on a
	// copy of it up to the first 200 response. The last golden memo
	// serves the passes.
	var golden string
	var setups []float64
	for i := 0; i < simdSetups; i++ {
		t0 := time.Now()
		golden = filepath.Join(tmp, fmt.Sprintf("golden%d", i))
		if err := writeGolden(golden, plans[0].Disk); err != nil {
			return err
		}
		client, tp := newClient()
		dir := filepath.Join(tmp, fmt.Sprintf("setup%d", i))
		if err := linkDir(golden, dir); err != nil {
			return err
		}
		s, err := boot(dir, client)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		tp.CloseIdleConnections()
		s.stop()
	}
	r.set("setup_s", median(setups), len(setups))

	var (
		mu                       sync.Mutex
		boots, phases            []float64
		lat, cellsLat            []float64
		passMean                 []float64
		batchMean, simMean       []float64
		lruHits, lruMiss         float64
		memoHits, memoMiss, dedu float64
		cells                    float64
		leases0                  = bench.Shards().Leases
		go0                      = readGo()
	)
	reqsPerPass := 0
	for _, list := range orders[0] {
		reqsPerPass += len(list)
	}
	// Every pass serves from one memo directory holding the golden
	// entries; the entries a pass adds are deleted after it, outside
	// the measured time, so the next pass starts from the same disk.
	passDir := filepath.Join(tmp, "pass")
	if err := linkDir(golden, passDir); err != nil {
		return err
	}
	keep := map[string]bool{}
	if err := filepath.WalkDir(passDir, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			keep[p] = true
		}
		return err
	}); err != nil {
		return err
	}
	durs, err := r.passLoop(1, func(i int) (bool, error) {
		// A pass models a restarted daemon, and a new process starts
		// with an empty measurement-shard pool. The pass loop's
		// collection moved the pooled shards to sync.Pool's victim
		// cache; this one drops them. Without it the shards live on
		// from pass to pass, and with them every memsim.Net they keep
		// per *topology.Machine: serve's default machine lookup builds
		// a new Machine per request, so that map grows with every
		// simulated cell until the pool happens to drop the shard.
		runtime.GC()
		client, transport := newClient()
		defer transport.CloseIdleConnections()
		t0 := time.Now()
		s, err := boot(passDir, client)
		if err != nil {
			return false, err
		}
		boots = append(boots, time.Since(t0).Seconds())
		tc := time.Now()
		var passLat []float64
		var wg sync.WaitGroup
		clients := orders[i%len(orders)]
		for c := range clients {
			wg.Add(1)
			go func(list []prepared) {
				defer wg.Done()
				for _, p := range list {
					id := r.tr.begin("http.roundtrip", r.passSpan)
					t := time.Now()
					got, cause := post(client, s.base, p.b, p.payload)
					d := time.Since(t).Seconds()
					r.tr.end(id)
					mismatch := false
					if cause == "" && got != p.want {
						cause = fmt.Sprintf("simd_mixed %s batch of %d cells: body hash %x, reference %x",
							p.b.Req.Machine, p.cells, got[:6], p.want[:6])
						mismatch = true
					}
					mu.Lock()
					r.attempt(cause, mismatch)
					if cause == "" {
						lat = append(lat, d*1e3)
						passLat = append(passLat, d*1e3)
						if !p.b.Sweep {
							cellsLat = append(cellsLat, d*1e3)
						}
						cells += float64(p.cells)
					}
					mu.Unlock()
				}
			}(clients[c])
		}
		wg.Wait()
		phases = append(phases, time.Since(tc).Seconds())
		if len(passLat) > 0 {
			passMean = append(passMean, mean(passLat))
		}
		id := r.tr.begin("serve.stats", r.passSpan)
		st, err := s.stats(client)
		r.tr.end(id)
		transport.CloseIdleConnections()
		s.stop()
		if err != nil {
			return false, err
		}
		lruHits += float64(st.Cache.LRUHits)
		lruMiss += float64(st.Cache.LRUMisses)
		memoHits += float64(st.Cache.SimHits)
		memoMiss += float64(st.Cache.SimMisses)
		dedu += float64(st.Cache.SimDeduped)
		batchMean = append(batchMean, st.BatchLatency.MeanSeconds*1e3)
		simMean = append(simMean, st.SimLatency.MeanSeconds*1e3)
		return true, filepath.WalkDir(passDir, func(p string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || keep[p] {
				return err
			}
			return os.Remove(p)
		})
	})
	if err != nil {
		return err
	}
	passes := float64(len(durs))
	r.setGo(readGo().sub(go0), passes)
	sweep := median(phases)
	r.set("sweep_s", sweep, len(phases))
	// Which request runs beside which depends on the order, so a single
	// request's latency and a pass's mean latency do; their median over
	// passes that cycle through many orders hardly does.
	r.set("op_ms", median(passMean), len(lat))
	r.set("ops_per_s", float64(reqsPerPass)/sweep, len(phases))
	r.set("peak_mem_mb", median(r.peaks), len(r.peaks))
	r.layer["serve.boot_ms"] = median(boots) * 1e3
	if pct, v, ok := tailPercentile(lat); ok {
		r.note("req_p%g_ms %.6f ms (n=%d)", pct, v, len(lat))
	}
	r.layer["serve.req_p99_ms"] = quantile(lat, 0.99)
	share := func(x float64) float64 { return x / cells }
	r.layer["serve.share_lru"] = share(lruHits)
	r.layer["serve.share_disk"] = share(memoHits - dedu)
	r.layer["serve.share_singleflight"] = share(dedu)
	r.layer["serve.share_sim"] = share(memoMiss)
	r.note("cells answered: LRU %.1f%%, disk memo %.1f%%, singleflight %.1f%%, simulated %.1f%% (of %.0f)",
		100*share(lruHits), 100*share(memoHits-dedu), 100*share(dedu), 100*share(memoMiss), cells)
	r.layer["serve.lru_hit_ratio"] = lruHits / (lruHits + lruMiss)
	r.layer["serve.sim_cells"] = memoMiss / passes
	// The server's latency histograms are log2-bucketed, so their exact
	// means are used rather than bucket-bound percentiles.
	r.layer["serve.sim_mean_ms"] = median(simMean)
	r.layer["serve.batch_mean_ms"] = median(batchMean)
	r.layer["serve.http_ms"] = mean(cellsLat) - median(batchMean)
	r.layer["bench.memo_hit_ratio"] = memoHits / (memoHits + memoMiss)
	r.layer["bench.memo_deduped"] = dedu / passes
	r.layer["bench.shard_leases"] = float64(bench.Shards().Leases-leases0) / passes
	r.layer["bench.arena_bytes"] = float64(bench.Shards().ArenaBytes)
	if r.traced {
		return r.probeLayers(topology.Zoot(), paperComps()["KNEM-Coll"], 32*bench.KiB)
	}
	return nil
}
