package topology

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

const sampleCluster = `
# four Dancer nodes behind one switch
cluster quad
node n0 machine=Dancer
node n1 machine=Dancer
node n2 machine=Dancer
node n3 machine=Dancer
switch sw0 bw=1.25G lat=2u
`

// builtinResolver resolves only the built-in machine names, with a
// deterministic error for anything else, so dangling-reference cases can
// assert exact error strings.
func builtinResolver(ref string) (*Machine, error) {
	if m := ByName(ref); m != nil {
		return m, nil
	}
	return nil, fmt.Errorf("unknown machine %q", ref)
}

// TestCompileCluster is the table-driven compile suite: valid clusters are
// checked against their full compiled node structs plus global-machine
// shape, and invalid clusters against exact one-line error strings.
func TestCompileCluster(t *testing.T) {
	nodes := func(specs ...string) []NodeSpec {
		ns := make([]NodeSpec, len(specs))
		for i, s := range specs {
			ns[i] = NodeSpec{Name: fmt.Sprintf("n%d", i), Machine: s}
		}
		return ns
	}
	manyNodes := func(n int, machine string) []NodeSpec {
		specs := make([]string, n)
		for i := range specs {
			specs[i] = machine
		}
		return nodes(specs...)
	}

	cases := []struct {
		name string
		cfg  ClusterConfig
		// want is the full expected compiled node slice; checked with
		// DeepEqual when set.
		want []*ClusterNode
		// global-shape expectations, checked when want is set
		wantCores    int
		wantDomains  int
		wantBoards   int
		wantSwitchAt int // -1 for none
		wantErr      string
	}{
		{
			name: "two saturn nodes, one explicit link",
			cfg: ClusterConfig{
				Name:  "pair",
				Nodes: nodes("Saturn", "Saturn"),
				Links: []LinkSpec{{A: "n0", B: "n1", Name: "ib0", BW: 3e9, Lat: 50e-6}},
			},
			want: []*ClusterNode{
				{Name: "n0", Index: 0, MachineName: "Saturn", FirstCore: 0, NCores: 16, FirstDomain: 0, NDomains: 2, FirstGroup: 0, NGroups: 2, Gateway: 0},
				{Name: "n1", Index: 1, MachineName: "Saturn", FirstCore: 16, NCores: 16, FirstDomain: 2, NDomains: 2, FirstGroup: 2, NGroups: 2, Gateway: 2},
			},
			wantCores:    32,
			wantDomains:  4,
			wantBoards:   2,
			wantSwitchAt: -1,
		},
		{
			name: "four dancer nodes behind a switch",
			cfg: ClusterConfig{
				Name:   "quad",
				Nodes:  nodes("Dancer", "Dancer", "Dancer", "Dancer"),
				Switch: &SwitchSpec{Name: "sw0", BW: 1.25e9, Lat: 2e-6},
			},
			want: []*ClusterNode{
				{Name: "n0", Index: 0, MachineName: "Dancer", FirstCore: 0, NCores: 8, FirstDomain: 0, NDomains: 2, FirstGroup: 0, NGroups: 2, Gateway: 0},
				{Name: "n1", Index: 1, MachineName: "Dancer", FirstCore: 8, NCores: 8, FirstDomain: 2, NDomains: 2, FirstGroup: 2, NGroups: 2, Gateway: 2},
				{Name: "n2", Index: 2, MachineName: "Dancer", FirstCore: 16, NCores: 8, FirstDomain: 4, NDomains: 2, FirstGroup: 4, NGroups: 2, Gateway: 4},
				{Name: "n3", Index: 3, MachineName: "Dancer", FirstCore: 24, NCores: 8, FirstDomain: 6, NDomains: 2, FirstGroup: 6, NGroups: 2, Gateway: 6},
			},
			wantCores:    32,
			wantDomains:  8,
			wantBoards:   4,
			wantSwitchAt: 8,
		},
		{
			name: "thirty-two zoot nodes behind a switch",
			cfg: ClusterConfig{
				Name:   "rack",
				Nodes:  manyNodes(32, "Zoot"),
				Switch: &SwitchSpec{Name: "tor", BW: 12e9, Lat: 1e-6},
			},
			want: func() []*ClusterNode {
				// Zoot: 5 vertices (northbridge first), 16 cores, 1 domain.
				ns := make([]*ClusterNode, 32)
				for i := range ns {
					ns[i] = &ClusterNode{
						Name: fmt.Sprintf("n%d", i), Index: i, MachineName: "Zoot",
						FirstCore: 16 * i, NCores: 16, FirstDomain: i, NDomains: 1,
						FirstGroup: 8 * i, NGroups: 8,
						Gateway: 5 * i,
					}
				}
				return ns
			}(),
			wantCores:    512,
			wantDomains:  32,
			wantBoards:   32,
			wantSwitchAt: 160,
		},
		{
			name: "single node needs no fabric",
			cfg:  ClusterConfig{Name: "solo", Nodes: nodes("Dancer")},
			want: []*ClusterNode{
				{Name: "n0", Index: 0, MachineName: "Dancer", FirstCore: 0, NCores: 8, FirstDomain: 0, NDomains: 2, FirstGroup: 0, NGroups: 2, Gateway: 0},
			},
			wantCores:    8,
			wantDomains:  2,
			wantBoards:   1,
			wantSwitchAt: -1,
		},
		{
			name: "four nodes in an explicit ring",
			cfg: ClusterConfig{
				Name:  "ring",
				Nodes: nodes("Dancer", "Dancer", "Dancer", "Dancer"),
				Links: []LinkSpec{
					{A: "n0", B: "n1", Name: "e0", BW: 1.25e9, Lat: 10e-6},
					{A: "n1", B: "n2", Name: "e1", BW: 1.25e9, Lat: 10e-6},
					{A: "n2", B: "n3", Name: "e2", BW: 1.25e9, Lat: 10e-6},
					{A: "n3", B: "n0", Name: "e3", BW: 1.25e9, Lat: 10e-6},
				},
			},
			want: []*ClusterNode{
				{Name: "n0", Index: 0, MachineName: "Dancer", FirstCore: 0, NCores: 8, FirstDomain: 0, NDomains: 2, FirstGroup: 0, NGroups: 2, Gateway: 0},
				{Name: "n1", Index: 1, MachineName: "Dancer", FirstCore: 8, NCores: 8, FirstDomain: 2, NDomains: 2, FirstGroup: 2, NGroups: 2, Gateway: 2},
				{Name: "n2", Index: 2, MachineName: "Dancer", FirstCore: 16, NCores: 8, FirstDomain: 4, NDomains: 2, FirstGroup: 4, NGroups: 2, Gateway: 4},
				{Name: "n3", Index: 3, MachineName: "Dancer", FirstCore: 24, NCores: 8, FirstDomain: 6, NDomains: 2, FirstGroup: 6, NGroups: 2, Gateway: 6},
			},
			wantCores:    32,
			wantDomains:  8,
			wantBoards:   4,
			wantSwitchAt: -1,
		},
		{
			name: "switch plus extra direct link",
			cfg: ClusterConfig{
				Name:   "hybrid",
				Nodes:  nodes("Dancer", "Dancer"),
				Links:  []LinkSpec{{A: "n0", B: "n1", Name: "direct", BW: 5e9}},
				Switch: &SwitchSpec{Name: "sw", BW: 1.25e9},
			},
			want: []*ClusterNode{
				{Name: "n0", Index: 0, MachineName: "Dancer", FirstCore: 0, NCores: 8, FirstDomain: 0, NDomains: 2, FirstGroup: 0, NGroups: 2, Gateway: 0},
				{Name: "n1", Index: 1, MachineName: "Dancer", FirstCore: 8, NCores: 8, FirstDomain: 2, NDomains: 2, FirstGroup: 2, NGroups: 2, Gateway: 2},
			},
			wantCores:    16,
			wantDomains:  4,
			wantBoards:   2,
			wantSwitchAt: 4,
		},
		{
			name:    "missing name",
			cfg:     ClusterConfig{Nodes: nodes("Dancer")},
			wantErr: "cluster: missing name",
		},
		{
			name:    "no nodes",
			cfg:     ClusterConfig{Name: "c"},
			wantErr: "cluster c: no nodes",
		},
		{
			name: "duplicate node name",
			cfg: ClusterConfig{
				Name:  "c",
				Nodes: []NodeSpec{{Name: "n0", Machine: "Dancer"}, {Name: "n0", Machine: "Dancer"}},
			},
			wantErr: `cluster c: duplicate node "n0"`,
		},
		{
			name: "dangling machine reference",
			cfg: ClusterConfig{
				Name:  "c",
				Nodes: []NodeSpec{{Name: "n0", Machine: "Dancer"}, {Name: "n1", Machine: "NoSuchBox"}},
			},
			wantErr: `cluster c: node "n1": machine "NoSuchBox": unknown machine "NoSuchBox"`,
		},
		{
			name: "mixed machine specs",
			cfg: ClusterConfig{
				Name:   "c",
				Nodes:  nodes("Dancer", "Saturn"),
				Switch: &SwitchSpec{Name: "sw", BW: 1e9},
			},
			wantErr: `cluster c: node "n1" machine spec differs from node "n0" (all nodes must share one scalar spec)`,
		},
		{
			name: "zero-bandwidth link",
			cfg: ClusterConfig{
				Name:  "c",
				Nodes: nodes("Dancer", "Dancer"),
				Links: []LinkSpec{{A: "n0", B: "n1", Name: "eth0", BW: 0}},
			},
			wantErr: `cluster c: link "eth0": non-positive bandwidth`,
		},
		{
			name: "negative link latency",
			cfg: ClusterConfig{
				Name:  "c",
				Nodes: nodes("Dancer", "Dancer"),
				Links: []LinkSpec{{A: "n0", B: "n1", Name: "eth0", BW: 1e9, Lat: -1e-6}},
			},
			wantErr: `cluster c: link "eth0": negative latency`,
		},
		{
			name: "asymmetric duplicate link declaration",
			cfg: ClusterConfig{
				Name:  "c",
				Nodes: nodes("Dancer", "Dancer"),
				Links: []LinkSpec{
					{A: "n0", B: "n1", Name: "fwd", BW: 1e9},
					{A: "n1", B: "n0", Name: "rev", BW: 1e9},
				},
			},
			wantErr: "cluster c: duplicate link n0-n1 (fabric links are bidirectional; declare each pair once)",
		},
		{
			name: "link to unknown node",
			cfg: ClusterConfig{
				Name:  "c",
				Nodes: nodes("Dancer", "Dancer"),
				Links: []LinkSpec{{A: "n0", B: "n9", Name: "eth0", BW: 1e9}},
			},
			wantErr: `cluster c: link "eth0" references unknown node "n9"`,
		},
		{
			name: "self link",
			cfg: ClusterConfig{
				Name:  "c",
				Nodes: nodes("Dancer", "Dancer"),
				Links: []LinkSpec{
					{A: "n0", B: "n0", Name: "lo", BW: 1e9},
					{A: "n0", B: "n1", Name: "eth0", BW: 1e9},
				},
			},
			wantErr: `cluster c: link "lo" connects node "n0" to itself`,
		},
		{
			name: "unreachable node",
			cfg: ClusterConfig{
				Name:  "c",
				Nodes: nodes("Dancer", "Dancer", "Dancer"),
				Links: []LinkSpec{{A: "n0", B: "n1", Name: "eth0", BW: 1e9}},
			},
			wantErr: `cluster c: node "n2" unreachable over the fabric`,
		},
		{
			name: "zero-bandwidth switch",
			cfg: ClusterConfig{
				Name:   "c",
				Nodes:  nodes("Dancer"),
				Switch: &SwitchSpec{Name: "sw"},
			},
			wantErr: `cluster c: switch "sw": non-positive bandwidth`,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := CompileCluster(tc.cfg, builtinResolver)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("compiled, want error %q", tc.wantErr)
				}
				if err.Error() != tc.wantErr {
					t.Fatalf("error = %q, want %q", err.Error(), tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cl.Nodes, tc.want) {
				t.Errorf("nodes mismatch:\n got %v\nwant %v", dumpNodes(cl.Nodes), dumpNodes(tc.want))
			}
			g := cl.Global
			if g.NCores() != tc.wantCores || len(g.Domains) != tc.wantDomains || g.Boards() != tc.wantBoards {
				t.Errorf("global shape: cores=%d domains=%d boards=%d, want %d/%d/%d",
					g.NCores(), len(g.Domains), g.Boards(), tc.wantCores, tc.wantDomains, tc.wantBoards)
			}
			if cl.SwitchVertex != tc.wantSwitchAt {
				t.Errorf("switch vertex = %d, want %d", cl.SwitchVertex, tc.wantSwitchAt)
			}
			if g.Name != "cluster:"+tc.cfg.Name {
				t.Errorf("global name = %q", g.Name)
			}
			if cl.NNodes() != len(tc.want) {
				t.Errorf("NNodes = %d, want %d", cl.NNodes(), len(tc.want))
			}
			for _, n := range cl.Nodes {
				for c := n.FirstCore; c < n.FirstCore+n.NCores; c++ {
					if cl.NodeOfCore(c) != n.Index {
						t.Fatalf("NodeOfCore(%d) = %d, want %d", c, cl.NodeOfCore(c), n.Index)
					}
				}
			}
		})
	}
}

func dumpNodes(ns []*ClusterNode) string {
	var sb strings.Builder
	for _, n := range ns {
		fmt.Fprintf(&sb, "%+v ", *n)
	}
	return sb.String()
}

// Fabric latency shows up on cross-node paths and nowhere else, and the
// compiled cluster contends fabric flows through the ordinary link graph.
func TestClusterFabricLatency(t *testing.T) {
	cl, err := CompileCluster(ClusterConfig{
		Name:   "quad",
		Nodes:  []NodeSpec{{Name: "a", Machine: "Dancer"}, {Name: "b", Machine: "Dancer"}},
		Switch: &SwitchSpec{Name: "sw", BW: 1.25e9, Lat: 2e-6},
	}, builtinResolver)
	if err != nil {
		t.Fatal(err)
	}
	g := cl.Global
	if !g.HasLatency() {
		t.Fatal("cluster with switch latency should report HasLatency")
	}
	// Cross-node: gateway → switch → gateway, two hops of 2 µs.
	a, b := cl.Nodes[0], cl.Nodes[1]
	got := g.PathLatency(g.Cores[a.FirstCore].Vertex, g.Cores[b.FirstCore].Vertex)
	if got != 4e-6 {
		t.Fatalf("cross-node path latency = %g, want 4e-6", got)
	}
	// Intra-node paths carry no fabric latency.
	if lat := g.PathLatency(g.Cores[0].Vertex, g.Cores[7].Vertex); lat != 0 {
		t.Fatalf("intra-node path latency = %g, want 0", lat)
	}
	// Single-node machines keep reporting no latency at all.
	if Dancer().HasLatency() {
		t.Fatal("Dancer should have no latency")
	}
}

// Compiling the same config twice yields structurally identical clusters —
// the memo cache keys sweeps by machine fingerprint, so this must hold.
func TestCompileClusterDeterministic(t *testing.T) {
	cfg, err := ParseCluster(strings.NewReader(sampleCluster))
	if err != nil {
		t.Fatal(err)
	}
	a, err := CompileCluster(cfg, builtinResolver)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileCluster(cfg, builtinResolver)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Nodes, b.Nodes) {
		t.Fatal("node slices differ between compiles")
	}
	if len(a.Global.Links) != len(b.Global.Links) {
		t.Fatal("global link counts differ between compiles")
	}
	for i := range a.Global.Links {
		la, lb := a.Global.Links[i], b.Global.Links[i]
		if la.Name != lb.Name || la.BW != lb.BW || la.Lat != lb.Lat {
			t.Fatalf("link %d differs: %+v vs %+v", i, *la, *lb)
		}
	}
}

func TestParseCluster(t *testing.T) {
	cfg, err := ParseCluster(strings.NewReader(sampleCluster))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "quad" || len(cfg.Nodes) != 4 || len(cfg.Links) != 0 {
		t.Fatalf("parsed shape: %+v", cfg)
	}
	if cfg.Nodes[2] != (NodeSpec{Name: "n2", Machine: "Dancer"}) {
		t.Fatalf("node 2 = %+v", cfg.Nodes[2])
	}
	if cfg.Switch == nil || cfg.Switch.BW != 1.25e9 || cfg.Switch.Lat != 2e-6 {
		t.Fatalf("switch = %+v", cfg.Switch)
	}

	bad := []struct{ in, wantErr string }{
		{"node a machine=Dancer", "cluster file: missing 'cluster <name>' line"},
		{"cluster a\ncluster b", "cluster file line 2: duplicate cluster directive"},
		{"cluster a\nnode x", "cluster file line 2: node wants: node <name> machine=<ref>"},
		{"cluster a\nnode x cpu=4", `cluster file line 2: unknown node field "cpu"`},
		{"cluster a\nlink x y l 0G", `cluster file line 2: link bw: bad rate "0"`},
		{"cluster a\nlink x y l 1G lat=-3u", `cluster file line 2: link lat: bad time "-3"`},
		{"cluster a\nswitch s bw=1G\nswitch t bw=1G", "cluster file line 3: duplicate switch directive"},
		{"cluster a\nswitch s lat=1u", "cluster file line 2: switch s needs positive bw"},
		{"cluster a\nbogus x", `cluster file line 2: unknown directive "bogus"`},
	}
	for _, tc := range bad {
		if _, err := ParseCluster(strings.NewReader(tc.in)); err == nil || err.Error() != tc.wantErr {
			t.Errorf("ParseCluster(%q) error = %v, want %q", tc.in, err, tc.wantErr)
		}
	}
}

// FuzzClusterConfig asserts the cluster parser never panics, keeps its
// errors one-line, and round-trips: a successfully parsed config renders
// to canonical text that re-parses to the same canonical text. Every
// config that compiles over built-in machines must also route exactly as
// the reference router does (checkRoutes).
func FuzzClusterConfig(f *testing.F) {
	f.Add(sampleCluster)
	f.Add("cluster x\nnode a machine=Dancer\n")
	f.Add("cluster x\nnode a machine=Dancer\nnode b machine=Dancer\nlink a b l 1G lat=2u\nswitch s bw=3G lat=1u\n")
	f.Add("cluster x\nlink a b l 1.25G\n# comment\n")
	f.Add("garbage\x00\xff")
	f.Fuzz(func(t *testing.T, in string) {
		cfg, err := ParseCluster(strings.NewReader(in))
		if err != nil {
			if strings.ContainsRune(err.Error(), '\n') {
				t.Fatalf("multi-line error: %q", err)
			}
			return
		}
		r1 := cfg.Render()
		cfg2, err := ParseCluster(strings.NewReader(r1))
		if err != nil {
			t.Fatalf("re-parse of rendered config failed: %v\nrendered:\n%s", err, r1)
		}
		if r2 := cfg2.Render(); r1 != r2 {
			t.Fatalf("render not idempotent:\n%s\nvs\n%s", r1, r2)
		}
		cl, err := CompileCluster(cfg, builtinOnly)
		if err != nil {
			if strings.ContainsRune(err.Error(), '\n') {
				t.Fatalf("multi-line compile error: %q", err)
			}
			return
		}
		checkRoutes(t, cl.Global)
	})
}

// builtinOnly resolves the paper's four machines and nothing else, so
// fuzzed configs never read files and stay small enough for the
// reference router's all-pairs link slices.
func builtinOnly(ref string) (*Machine, error) {
	if m, ok := Machines()[ref]; ok {
		return m, nil
	}
	return nil, fmt.Errorf("not a paper machine")
}
