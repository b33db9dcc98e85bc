package fault

import (
	"testing"

	"repro/internal/trace"
)

func TestEmpty(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() {
		t.Error("nil plan not empty")
	}
	if !(&Plan{Seed: 7, MaxRetries: 5, RetryBackoff: 1e-6}).Empty() {
		t.Error("policy-only plan not empty")
	}
	cases := []Plan{
		{PinnedPageBudget: 100},
		{CreateFailEvery: 2},
		{CreateTransient: 0.5},
		{CopyTransient: 0.5},
		{InvalidateEvery: 3},
		{DMAFailEvery: 4},
		{DMAStallEvery: 4},
		{LinkSlowdown: map[string]float64{"qpi": 0.5}},
		{Straggler: map[int]float64{1: 1e-3}},
	}
	for i, p := range cases {
		if p.Empty() {
			t.Errorf("case %d reported empty", i)
		}
	}
}

func TestCreateEveryNthAndBudget(t *testing.T) {
	st := &trace.Stats{}
	in := NewInjector(Plan{CreateFailEvery: 3, PinnedPageBudget: 10}, nil, st, nil)
	var outs []Outcome
	for i := 0; i < 6; i++ {
		outs = append(outs, in.Create(2))
	}
	// Creates 3 and 6 fail with NoMem; the others reserve 2 pages each.
	want := []Outcome{OK, OK, NoMem, OK, OK, NoMem}
	for i := range want {
		if outs[i] != want[i] {
			t.Fatalf("create %d: got %v want %v", i+1, outs[i], want[i])
		}
	}
	if in.PinnedPages() != 8 {
		t.Fatalf("pinned = %d, want 8", in.PinnedPages())
	}
	// The budget now rejects anything over 2 more pages.
	if out := in.Create(100); out != NoMem {
		t.Fatalf("over-budget create: got %v", out)
	}
	in.Release(8)
	if in.PinnedPages() != 0 {
		t.Fatalf("pinned after release = %d", in.PinnedPages())
	}
	if st.CreateFaults != 3 || st.FaultsInjected != 3 {
		t.Fatalf("stats: createFaults=%d faults=%d", st.CreateFaults, st.FaultsInjected)
	}
}

func TestCopyInvalidateEveryNth(t *testing.T) {
	st := &trace.Stats{}
	in := NewInjector(Plan{InvalidateEvery: 4}, nil, st, nil)
	for i := 1; i <= 8; i++ {
		out := in.Copy()
		if (i%4 == 0) != (out == Invalidated) {
			t.Fatalf("copy %d: got %v", i, out)
		}
	}
	if st.CopyFaults != 2 {
		t.Fatalf("copyFaults = %d", st.CopyFaults)
	}
}

func TestDeterministicTransients(t *testing.T) {
	run := func() []Outcome {
		in := NewInjector(Plan{Seed: 42, CreateTransient: 0.3, CopyTransient: 0.3}, nil, &trace.Stats{}, nil)
		var outs []Outcome
		for i := 0; i < 50; i++ {
			outs = append(outs, in.Create(1), in.Copy())
		}
		return outs
	}
	a, b := run(), run()
	saw := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] == Transient {
			saw = true
		}
	}
	if !saw {
		t.Fatal("no transient fault in 100 draws at p=0.3")
	}
}

func TestDMAAndPolicy(t *testing.T) {
	st := &trace.Stats{}
	in := NewInjector(Plan{DMAFailEvery: 2, DMAStallEvery: 3, DMAStall: 5e-6}, nil, st, nil)
	// #1 ok, #2 fail, #3 stall, #4 fail, #5 ok, #6 fail (fail wins ties).
	type res struct {
		stall  float64
		failed bool
	}
	var got []res
	for i := 0; i < 6; i++ {
		s, f := in.DMA()
		got = append(got, res{s, f})
	}
	want := []res{{0, false}, {0, true}, {5e-6, false}, {0, true}, {0, false}, {0, true}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dma %d: got %+v want %+v", i+1, got[i], want[i])
		}
	}
	if st.DMAFaults != 4 {
		t.Fatalf("dmaFaults = %d", st.DMAFaults)
	}

	if in.MaxRetries() != 3 {
		t.Fatalf("default MaxRetries = %d", in.MaxRetries())
	}
	if b := in.Backoff(2); b != 4e-6 {
		t.Fatalf("backoff(2) = %g", b)
	}
	in2 := NewInjector(Plan{MaxRetries: 7, RetryBackoff: 2e-6}, nil, &trace.Stats{}, nil)
	if in2.MaxRetries() != 7 || in2.Backoff(1) != 4e-6 {
		t.Fatalf("explicit policy: retries=%d backoff=%g", in2.MaxRetries(), in2.Backoff(1))
	}
}

func TestLinkScaleAndStraggler(t *testing.T) {
	in := NewInjector(Plan{
		LinkSlowdown: map[string]float64{"qpi": 0.25, "bogus": 7},
		Straggler:    map[int]float64{3: 2e-3},
	}, nil, &trace.Stats{}, nil)
	if in.LinkScale("qpi") != 0.25 {
		t.Fatalf("qpi scale = %g", in.LinkScale("qpi"))
	}
	if in.LinkScale("bogus") != 1 || in.LinkScale("other") != 1 {
		t.Fatal("out-of-range or unknown link not clamped to 1")
	}
	if in.Straggle(3) != 2e-3 || in.Straggle(0) != 0 {
		t.Fatal("straggler lookup wrong")
	}
}

func TestTimelineSpans(t *testing.T) {
	tl := &trace.Timeline{}
	in := NewInjector(Plan{CreateFailEvery: 1}, nil, &trace.Stats{}, tl)
	in.Create(1)
	if len(tl.Spans) != 1 || tl.Spans[0].Lane != "faults" || tl.Spans[0].Kind != "create-enomem" {
		t.Fatalf("spans: %+v", tl.Spans)
	}
}

func TestCanFail(t *testing.T) {
	var none *Injector
	if none.CanFail() {
		t.Error("nil injector can fail")
	}
	failing := []Plan{
		{PinnedPageBudget: 64}, {CreateFailEvery: 3}, {CreateTransient: 0.1},
		{CopyTransient: 0.1}, {InvalidateEvery: 2}, {DMAFailEvery: 4},
	}
	for _, p := range failing {
		if !NewInjector(p, nil, nil, nil).CanFail() {
			t.Errorf("%+v: CanFail = false", p)
		}
	}
	infallible := []Plan{
		{DMAStallEvery: 2, DMAStall: 1e-6},
		{LinkSlowdown: map[string]float64{"qpi": 0.5}},
		{Straggler: map[int]float64{1: 1e-3}},
		{LeaderDown: map[int]bool{0: true}},
		{Seed: 9, MaxRetries: 5, RetryBackoff: 1e-6},
	}
	for _, p := range infallible {
		if NewInjector(p, nil, nil, nil).CanFail() {
			t.Errorf("%+v: CanFail = true", p)
		}
	}
}
