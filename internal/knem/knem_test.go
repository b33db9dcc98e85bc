package knem

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

func setup() (*sim.Engine, *memsim.Net, *Module, *topology.Machine) {
	m := topology.Dancer()
	e := sim.NewEngine()
	n := memsim.New(e, m, nil)
	return e, n, New(n), m
}

func run(t *testing.T, e *sim.Engine, body func(p *sim.Proc)) {
	t.Helper()
	e.Spawn("test", body)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateCopyDestroy(t *testing.T) {
	e, n, mod, m := setup()
	src := n.Alloc(m.Domains[0], 4096, true)
	dst := n.Alloc(m.Domains[1], 4096, true)
	for i := range src.Data {
		src.Data[i] = byte(i % 251)
	}
	run(t, e, func(p *sim.Proc) {
		c, err := mod.Create(p, 0, []memsim.View{src.Whole()}, DirRead)
		if err != nil {
			t.Fatal(err)
		}
		if err := mod.Copy(p, m.Cores[4], []memsim.View{dst.Whole()}, c, 0, DirRead); err != nil {
			t.Fatal(err)
		}
		if err := mod.Destroy(p, c); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(src.Data, dst.Data) {
		t.Fatal("data mismatch after KNEM read")
	}
	if n.Stats().Copies != 1 {
		t.Fatalf("copies = %d, want 1 (single-copy semantics)", n.Stats().Copies)
	}
	if n.Stats().Registrations != 1 || n.Stats().KernelTraps != 3 {
		t.Fatalf("regs=%d traps=%d, want 1/3", n.Stats().Registrations, n.Stats().KernelTraps)
	}
	if mod.ActiveRegions() != 0 {
		t.Fatal("region leaked")
	}
}

func TestTrapLatencyCharged(t *testing.T) {
	e, n, mod, m := setup()
	src := n.Alloc(m.Domains[0], 64, false)
	trap := n.Machine().Spec.KernelTrap
	run(t, e, func(p *sim.Proc) {
		t0 := p.Now()
		c, _ := mod.Create(p, 0, []memsim.View{src.Whole()}, DirRead)
		// One trap plus pinning a single page.
		want := trap + n.Machine().Spec.PinPerPage
		if p.Now()-t0 != want {
			t.Errorf("Create cost %g, want %g", p.Now()-t0, want)
		}
		mod.Destroy(p, c)
	})
}

func TestInvalidCookie(t *testing.T) {
	e, n, mod, m := setup()
	dst := n.Alloc(m.Domains[0], 64, false)
	run(t, e, func(p *sim.Proc) {
		err := mod.Copy(p, m.Cores[0], []memsim.View{dst.Whole()}, Cookie(999), 0, DirRead)
		if err != ErrInvalidCookie {
			t.Errorf("err = %v, want ErrInvalidCookie", err)
		}
		if err := mod.Destroy(p, Cookie(42)); err != ErrInvalidCookie {
			t.Errorf("destroy err = %v", err)
		}
	})
}

func TestCookieInvalidAfterDestroy(t *testing.T) {
	e, n, mod, m := setup()
	b := n.Alloc(m.Domains[0], 64, false)
	run(t, e, func(p *sim.Proc) {
		c, _ := mod.Create(p, 0, []memsim.View{b.Whole()}, DirRead)
		mod.Destroy(p, c)
		if err := mod.Copy(p, m.Cores[0], []memsim.View{b.Whole()}, c, 0, DirRead); err != ErrInvalidCookie {
			t.Errorf("err = %v, want ErrInvalidCookie", err)
		}
	})
}

func TestDirectionEnforced(t *testing.T) {
	e, n, mod, m := setup()
	buf := n.Alloc(m.Domains[0], 64, false)
	o := n.Alloc(m.Domains[0], 64, false)
	run(t, e, func(p *sim.Proc) {
		rd, _ := mod.Create(p, 0, []memsim.View{buf.Whole()}, DirRead)
		if err := mod.Copy(p, m.Cores[1], []memsim.View{o.Whole()}, rd, 0, DirWrite); err != ErrDirection {
			t.Errorf("write to read-only: err = %v", err)
		}
		wr, _ := mod.Create(p, 0, []memsim.View{buf.Whole()}, DirWrite)
		if err := mod.Copy(p, m.Cores[1], []memsim.View{o.Whole()}, wr, 0, DirRead); err != ErrDirection {
			t.Errorf("read from write-only: err = %v", err)
		}
		both, _ := mod.Create(p, 0, []memsim.View{buf.Whole()}, DirRead|DirWrite)
		if err := mod.Copy(p, m.Cores[1], []memsim.View{o.Whole()}, both, 0, DirRead); err != nil {
			t.Errorf("read from rw: %v", err)
		}
		if err := mod.Copy(p, m.Cores[1], []memsim.View{o.Whole()}, both, 0, DirWrite); err != nil {
			t.Errorf("write to rw: %v", err)
		}
	})
}

func TestRangeChecks(t *testing.T) {
	e, n, mod, m := setup()
	buf := n.Alloc(m.Domains[0], 100, false)
	o := n.Alloc(m.Domains[0], 60, false)
	run(t, e, func(p *sim.Proc) {
		c, _ := mod.Create(p, 0, []memsim.View{buf.Whole()}, DirRead)
		if err := mod.Copy(p, m.Cores[0], []memsim.View{o.Whole()}, c, 50, DirRead); err != ErrRange {
			t.Errorf("out-of-range err = %v", err)
		}
		if err := mod.Copy(p, m.Cores[0], []memsim.View{o.Whole()}, c, 40, DirRead); err != nil {
			t.Errorf("in-range err = %v", err)
		}
	})
}

func TestPartialCopyOffsets(t *testing.T) {
	e, n, mod, m := setup()
	src := n.Alloc(m.Domains[0], 1000, true)
	for i := range src.Data {
		src.Data[i] = byte(i)
	}
	dst := n.Alloc(m.Domains[1], 100, true)
	run(t, e, func(p *sim.Proc) {
		c, _ := mod.Create(p, 0, []memsim.View{src.Whole()}, DirRead)
		if err := mod.Copy(p, m.Cores[5], []memsim.View{dst.Whole()}, c, 300, DirRead); err != nil {
			t.Fatal(err)
		}
	})
	for i := 0; i < 100; i++ {
		if dst.Data[i] != byte(300+i) {
			t.Fatalf("offset copy wrong at %d", i)
		}
	}
}

func TestVectorRegion(t *testing.T) {
	e, n, mod, m := setup()
	a := n.Alloc(m.Domains[0], 100, true)
	b := n.Alloc(m.Domains[0], 100, true)
	for i := 0; i < 100; i++ {
		a.Data[i] = byte(i)
		b.Data[i] = byte(100 + i)
	}
	dst := n.Alloc(m.Domains[1], 120, true)
	run(t, e, func(p *sim.Proc) {
		// Region = a ++ b; read 120 bytes starting at logical offset 40.
		c, _ := mod.Create(p, 0, []memsim.View{a.Whole(), b.Whole()}, DirRead)
		if err := mod.Copy(p, m.Cores[4], []memsim.View{dst.Whole()}, c, 40, DirRead); err != nil {
			t.Fatal(err)
		}
	})
	for i := 0; i < 60; i++ {
		if dst.Data[i] != byte(40+i) {
			t.Fatalf("vector copy wrong in seg a at %d", i)
		}
	}
	for i := 60; i < 120; i++ {
		if dst.Data[i] != byte(100+i-60) {
			t.Fatalf("vector copy wrong in seg b at %d", i)
		}
	}
}

func TestWriteDirection(t *testing.T) {
	e, n, mod, m := setup()
	root := n.Alloc(m.Domains[0], 200, true)
	mine := n.Alloc(m.Domains[1], 100, true)
	for i := range mine.Data {
		mine.Data[i] = byte(i + 7)
	}
	run(t, e, func(p *sim.Proc) {
		c, _ := mod.Create(p, 0, []memsim.View{root.Whole()}, DirWrite)
		// Peer writes its block at offset 100 — Gather's sender-writes mode.
		if err := mod.Copy(p, m.Cores[6], []memsim.View{mine.Whole()}, c, 100, DirWrite); err != nil {
			t.Fatal(err)
		}
	})
	for i := 0; i < 100; i++ {
		if root.Data[100+i] != byte(i+7) {
			t.Fatalf("write-direction copy wrong at %d", i)
		}
	}
}

func TestConcurrentReadersShareRegion(t *testing.T) {
	e, n, mod, m := setup()
	src := n.Alloc(m.Domains[0], 1<<20, false)
	var cookie Cookie
	var ends []sim.Time
	e.Spawn("root", func(p *sim.Proc) {
		cookie, _ = mod.Create(p, 0, []memsim.View{src.Whole()}, DirRead)
	})
	for i := 1; i < 8; i++ {
		core := m.Cores[i]
		e.Spawn("reader", func(p *sim.Proc) {
			p.Wait(1e-4) // after the root finished registering
			dst := n.Alloc(core.Domain, 1<<20, false)
			if err := mod.Copy(p, core, []memsim.View{dst.Whole()}, cookie, 0, DirRead); err != nil {
				t.Error(err)
			}
			ends = append(ends, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ends) != 7 {
		t.Fatalf("%d readers finished", len(ends))
	}
	if n.Stats().Registrations != 1 {
		t.Fatalf("regs = %d, want 1 — persistent region shared by all peers", n.Stats().Registrations)
	}
}

func TestDMARequiresEngine(t *testing.T) {
	e, n, mod, m := setup() // Dancer has no DMA engines
	b := n.Alloc(m.Domains[0], 64, false)
	run(t, e, func(p *sim.Proc) {
		c, _ := mod.Create(p, 0, []memsim.View{b.Whole()}, DirRead)
		if _, err := mod.CopyDMA(p, m.Cores[0], []memsim.View{b.Whole()}, c, 0, DirRead); err != ErrNoDMA {
			t.Errorf("err = %v, want ErrNoDMA", err)
		}
	})
}

func TestDMAAsync(t *testing.T) {
	mach := topology.Synthetic(topology.SyntheticSpec{
		Boards: 1, SocketsPerBoard: 1, CoresPerSocket: 2,
		BusBW: 16e9, LinkBW: 1e9, BoardLinkBW: 1,
		CacheSize: 8 << 20, CachePortBW: 30e9,
		Spec: topology.Spec{CoreCopyBW: 4.5e9, KernelTrap: 1e-7, CtrlLatency: 3e-7, Flops: 1e9, DMABw: 5e9},
	})
	e := sim.NewEngine()
	n := memsim.New(e, mach, nil)
	mod := New(n)
	src := n.Alloc(mach.Domains[0], 1<<20, true)
	dst := n.Alloc(mach.Domains[0], 1<<20, true)
	src.Data[12345] = 42
	run(t, e, func(p *sim.Proc) {
		c, _ := mod.Create(p, 0, []memsim.View{src.Whole()}, DirRead)
		op, err := mod.CopyDMA(p, mach.Cores[0], []memsim.View{dst.Whole()}, c, 0, DirRead)
		if err != nil {
			t.Fatal(err)
		}
		if op.Done() {
			t.Error("async op done immediately")
		}
		op.Wait(p)
		if !op.Done() {
			t.Error("op not done after Wait")
		}
	})
	if dst.Data[12345] != 42 {
		t.Fatal("DMA copy lost data")
	}
}

// Property: reading any [off, off+n) window of a registered region via a
// vectorial local buffer yields exactly the region bytes.
func TestWindowedReadProperty(t *testing.T) {
	f := func(off, ln uint16, split uint8) bool {
		e, n, mod, m := setup()
		const size = 4096
		o := int64(off) % size
		l := int64(ln) % (size - o)
		if l == 0 {
			l = 1
		}
		src := n.Alloc(m.Domains[0], size, true)
		for i := range src.Data {
			src.Data[i] = byte(i * 13)
		}
		d1 := n.Alloc(m.Domains[1], l, true)
		sp := int64(split) % l
		locals := []memsim.View{d1.View(0, sp), d1.View(sp, l-sp)}
		ok := true
		e.Spawn("t", func(p *sim.Proc) {
			c, _ := mod.Create(p, 0, []memsim.View{src.Whole()}, DirRead)
			if err := mod.Copy(p, m.Cores[4], locals, c, o, DirRead); err != nil {
				ok = false
				return
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		if !ok {
			return false
		}
		return bytes.Equal(d1.Data, src.Data[o:o+l])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestReattachDropsLeakedRegions pins the shard-reuse contract of New: a
// module re-attached to a reset engine/net starts with no live regions and
// restarts its cookie numbering, so a cell on a recycled shard sees the
// same cookies as on a fresh one and a cookie leaked by the previous cell
// does not resolve.
func TestReattachDropsLeakedRegions(t *testing.T) {
	e, n, mod, m := setup()
	b := n.Alloc(m.Domains[0], 4096, false)
	var leaked Cookie
	run(t, e, func(p *sim.Proc) {
		var err error
		if leaked, err = mod.Create(p, 0, []memsim.View{b.Whole()}, DirRead); err != nil {
			t.Fatal(err)
		}
	})
	if mod.ActiveRegions() != 1 {
		t.Fatalf("active regions = %d before reattach, want 1", mod.ActiveRegions())
	}

	e.Reset()
	n.Reset(nil)
	mod = New(n)
	if mod.ActiveRegions() != 0 {
		t.Fatalf("active regions = %d after reattach, want 0", mod.ActiveRegions())
	}
	b = n.Alloc(m.Domains[0], 4096, false)
	dst := n.Alloc(m.Domains[1], 4096, false)
	run(t, e, func(p *sim.Proc) {
		if err := mod.Copy(p, m.Cores[4], []memsim.View{dst.Whole()}, leaked, 0, DirRead); err != ErrInvalidCookie {
			t.Errorf("leaked cookie after reattach: err = %v, want ErrInvalidCookie", err)
		}
		c, err := mod.Create(p, 0, []memsim.View{b.Whole()}, DirRead)
		if err != nil {
			t.Fatal(err)
		}
		if c != leaked {
			t.Errorf("first cookie after reattach = %d, want %d (numbering restarts)", c, leaked)
		}
		if err := mod.Destroy(p, c); err != nil {
			t.Fatal(err)
		}
	})
	if mod.ActiveRegions() != 0 {
		t.Fatal("region leaked after reattach")
	}
}
