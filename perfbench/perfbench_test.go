package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/serve"
	"repro/internal/topology"
	"repro/internal/trace"
)

// fakeChildEnv makes the test binary stand in for a cluster cell child
// that dies the way the knem region-table race kills a real one.
const fakeChildEnv = "PERFBENCH_FAKE_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(fakeChildEnv) == "crash" {
		fmt.Fprintln(os.Stderr, "fatal error: concurrent map read and map write")
		fmt.Fprintln(os.Stderr, "goroutine 1 [running]:")
		os.Exit(2)
	}
	os.Exit(m.Run())
}

func newTestRun() *run {
	return &run{causes: map[string]int{}, e2e: map[string]float64{}, counts: map[string]int{}, layer: map[string]float64{}}
}

func TestTailPercentileHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		pct  float64
		isOK bool
	}{
		{10, 0, false}, {99, 0, false}, {100, 90, true}, {999, 90, true},
		{1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // unsorted on purpose
		}
		pct, v, ok := tailPercentile(xs)
		if ok != tc.isOK || pct != tc.pct {
			t.Fatalf("n=%d: got p%g ok=%t, want p%g ok=%t", tc.n, pct, ok, tc.pct, tc.isOK)
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Fatalf("n=%d: p%g = %v has %d samples beyond it, want >= 10", tc.n, pct, v, beyond)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); got != 3.7 {
		t.Fatalf("p90 = %v, want 3.7", got)
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Fatalf("quantile reordered its input: %v", xs)
	}
}

func TestPerKeyMedianMean(t *testing.T) {
	keys := []string{"a", "a", "a", "b"}
	xs := []float64{1, 2, 9, 4}
	if got := perKeyMedianMean(keys, xs); got != 3 {
		t.Fatalf("got %v, want (2+4)/2 = 3", got)
	}
}

func TestCrashedChildCountsAsOneFailure(t *testing.T) {
	t.Setenv(fakeChildEnv, "crash")
	r := newTestRun()
	_, _, cause := attemptChild("bcast_1MiB", false)
	r.attempt(cause, false)
	if r.attempted != 1 || r.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 1 and 1", r.attempted, r.failed)
	}
	if !strings.HasSuffix(cause, "fatal error: concurrent map read and map write") {
		t.Fatalf("cause %q does not end with the child's fatal error line", cause)
	}
	if r.mismatch {
		t.Fatal("a crash is a failed operation, not a wrong result")
	}
}

func TestCellRetriesCountEveryAttempt(t *testing.T) {
	t.Setenv(fakeChildEnv, "crash")
	r := newTestRun()
	if _, _, ok := r.tryCell(refTable{}, "gather_16KiB"); ok {
		t.Fatal("a cell whose every attempt crashes reported success")
	}
	if r.attempted != maxAttempts || r.failed != maxAttempts {
		t.Fatalf("attempted %d failed %d, want %d each", r.attempted, r.failed, maxAttempts)
	}
	if len(r.causes) != 1 {
		t.Fatalf("causes %v, want the one crash line", r.causes)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "req", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "req", Start: 20, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "req", Start: 90, End: 120}, // sticks out of its parent
		{ID: 5, Parent: 2, Name: "sim", Start: 15, End: 20},
		{ID: 6, Name: "pass", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := []layerTime{
		// pass: 100-(40+10) + 10 childless; req: (20-5)+30+30; sim: 5.
		{Name: "pass", Count: 2, Total: 110e-9, Self: 60e-9},
		{Name: "req", Count: 3, Total: 80e-9, Self: 75e-9},
		{Name: "sim", Count: 1, Total: 5e-9, Self: 5e-9},
	}
	if len(got) != len(want) {
		t.Fatalf("got %+v", got)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Count != w.Count || !near(g.Total, w.Total) || !near(g.Self, w.Self) {
			t.Fatalf("row %d: got %+v, want %+v", i, g, w)
		}
	}
}

func near(a, b float64) bool { return a-b < 1e-15 && b-a < 1e-15 }

func TestAdoptReparentsChildSpans(t *testing.T) {
	tr := &tracer{}
	parent := tr.begin("child", 0)
	tr.end(parent)
	tr.adopt([]Span{{ID: 1, Name: "a"}, {ID: 2, Parent: 1, Name: "b"}}, parent)
	s := tr.snapshot()
	if s[1].ID != 2 || s[1].Parent != parent || s[2].ID != 3 || s[2].Parent != 2 {
		t.Fatalf("adopted spans %+v", s)
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	enc := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, gen := range map[string]func(int64) any{
		"paper":   func(s int64) any { return paperCells(s) },
		"cluster": func(s int64) any { return clusterCells(s) },
		"simd":    func(s int64) any { return newSimdPlans(s, simdOrders) },
	} {
		if !bytes.Equal(enc(gen(7)), enc(gen(7))) {
			t.Fatalf("%s: seed 7 produced two different inputs", name)
		}
		if name != "cluster" && bytes.Equal(enc(gen(7)), enc(gen(8))) {
			t.Fatalf("%s: seeds 7 and 8 produced the same inputs", name)
		}
	}
	seen := map[string]bool{}
	for _, c := range paperCells(3) {
		seen[c.key()] = true
	}
	if len(seen) != 200 {
		t.Fatalf("paper sweep has %d distinct cells, want 200", len(seen))
	}
}

func TestSimdPlanPools(t *testing.T) {
	plan := newSimdPlans(11, 1)[0]
	disk := map[string]bool{}
	for _, c := range plan.Disk {
		disk[c.key()] = true
	}
	fresh := map[string]int{}
	requests := 0
	for _, list := range plan.Clients {
		if len(list) != simdBatchesPerConn {
			t.Fatalf("client has %d batches, want %d", len(list), simdBatchesPerConn)
		}
		for _, b := range list {
			requests++
			for _, c := range b.Req.Cells {
				k := cell{Machine: b.Req.Machine, Comp: c.Comp, Op: bench.Op(c.Op), Size: c.Size}.key()
				if !disk[k] {
					fresh[k]++
				}
			}
		}
	}
	// Each batch asks one fresh cell twice and three once; no fresh cell
	// appears in two batches, so a pass simulates each of them once.
	twice := 0
	for _, n := range fresh {
		switch n {
		case 1:
		case 2:
			twice++
		default:
			t.Fatalf("a fresh cell was asked %d times", n)
		}
	}
	if twice != requests || len(fresh) != requests*(simdFreshPerBatch+1) {
		t.Fatalf("%d duplicated and %d distinct fresh cells over %d batches", twice, len(fresh), requests)
	}
}

func TestSortedSweepHashMatchesExpected(t *testing.T) {
	refs, err := loadRefs("simd_cells")
	if err != nil {
		t.Fatal(err)
	}
	b := newSimdPlans(5, 1)[0].Clients[0][simdSweepEvery-1]
	if !b.Sweep {
		t.Fatal("expected a sweep batch")
	}
	want, err := expectedBody(refs, b)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the body in reverse completion order, as a server may
	// stream it.
	var lines [][]byte
	for i, c := range b.Req.Cells {
		key := cell{Machine: b.Req.Machine, Comp: c.Comp, Op: bench.Op(c.Op), Size: c.Size}.key()
		line, _ := json.Marshal(&serve.SweepLine{I: i, CellResult: serve.CellResult{
			Comp: c.Comp, Op: c.Op, Size: c.Size, NP: topology.ByName(b.Req.Machine).NCores(), Iters: c.Iters,
			OffCache: c.OffCache, Seconds: refs[key].Seconds,
		}})
		lines = append(lines, append(line, '\n'))
	}
	var body []byte
	for i := len(lines) - 1; i >= 0; i-- {
		body = append(body, lines[i]...)
	}
	body = append(body, []byte(fmt.Sprintf("{\"done\":%d}\n", len(lines)))...)
	got, err := sortedSweepHash(body)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("a reordered sweep body does not hash to the expected body")
	}
}

func TestRefsCheck(t *testing.T) {
	if _, err := loadRefs("cluster_10k"); err != nil {
		t.Fatal(err)
	}
	stats := trace.Stats{Copies: 3, CtrlMsgs: 7, LinkBytes: map[string]int64{"qpi": 100}}
	ref, err := statsRef(1.25e-4, &stats)
	if err != nil {
		t.Fatal(err)
	}
	refs := refTable{"cell": ref}
	if cause := refs.check("cell", ref.Seconds, &stats); cause != "" {
		t.Fatalf("reference does not match itself: %s", cause)
	}
	if cause := refs.check("cell", ref.Seconds*(1+1e-15), &stats); cause == "" {
		t.Fatal("a one-ulp-scale change in seconds passed the check")
	}
	stats.CtrlMsgs++
	if cause := refs.check("cell", ref.Seconds, &stats); !strings.Contains(cause, "trace counters") {
		t.Fatalf("a changed counter gave cause %q", cause)
	}
	stats.CtrlMsgs--
	stats.LinkBytes["qpi"]++
	if cause := refs.check("cell", ref.Seconds, &stats); !strings.Contains(cause, "per-link bytes") {
		t.Fatalf("a changed link byte count gave cause %q", cause)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics and
// workloads this program reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads))
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Fatalf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
