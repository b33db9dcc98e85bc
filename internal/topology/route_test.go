package topology

import (
	"math"
	"strings"
	"testing"
)

// referenceRoutes is the original all-pairs router, kept as the executable
// specification of the compact route tables: a BFS per source over the
// same neighbor order, materializing every vertex-pair path as a link
// slice and summing its latency link by link.
func referenceRoutes(m *Machine) (paths [][][]*Link, hops [][]int, lats [][]float64) {
	n := m.nVerts
	paths = make([][][]*Link, n)
	hops = make([][]int, n)
	lats = make([][]float64, n)
	for s := 0; s < n; s++ {
		prevEdge := make([]edge, n)
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range m.adj[u] {
				if dist[e.to] == -1 {
					dist[e.to] = dist[u] + 1
					prevEdge[e.to] = edge{to: u, link: e.link}
					queue = append(queue, e.to)
				}
			}
		}
		paths[s] = make([][]*Link, n)
		hops[s] = dist
		lats[s] = make([]float64, n)
		for t := 0; t < n; t++ {
			var rev []*Link
			for v := t; v != s; v = prevEdge[v].to {
				rev = append(rev, prevEdge[v].link)
			}
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			paths[s][t] = rev
			var sum float64
			for _, l := range rev {
				sum += l.Lat
			}
			lats[s][t] = sum
		}
	}
	return paths, hops, lats
}

// checkRoutes compares the compact route tables of m against the reference
// router: every vertex pair's link sequence, hop count, and latency (bit
// for bit), and every core's PathToDomain/PathToGroup.
func checkRoutes(t *testing.T, m *Machine) {
	t.Helper()
	paths, hops, lats := referenceRoutes(m)
	sameLinks := func(what string, got, want []*Link) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %s: %d links, reference %d", m.Name, what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: %s: link %d is %s, reference %s", m.Name, what, i, got[i].Name, want[i].Name)
			}
		}
	}
	for u := 0; u < m.nVerts; u++ {
		for v := 0; v < m.nVerts; v++ {
			if got := m.Hops(u, v); got != hops[u][v] {
				t.Fatalf("%s: Hops(%d, %d) = %d, reference %d", m.Name, u, v, got, hops[u][v])
			}
			want := lats[u][v]
			if !m.HasLatency() {
				want = 0
			}
			if got := m.PathLatency(u, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: PathLatency(%d, %d) = %v, reference %v", m.Name, u, v, got, want)
			}
			p := m.pathPlus(u, v, nil)
			sameLinks("vertex path", p[:len(p)-1], paths[u][v])
		}
	}
	for _, c := range m.Cores {
		for _, d := range m.Domains {
			sameLinks("PathToDomain", m.PathToDomain(c, d), append(append([]*Link(nil), paths[c.Vertex][d.Vertex]...), d.Bus))
		}
		for _, g := range m.Groups {
			sameLinks("PathToGroup", m.PathToGroup(c, g), append(append([]*Link(nil), paths[c.Vertex][g.Vertex]...), g.Port))
		}
	}
}

// TestRoutesMatchReference runs the differential route check on every
// built-in machine, the 512-core many-core model, a synthetic machine, the
// shipped four-node switched cluster, and a latencied point-to-point ring
// whose route latencies sum several distinct link latencies.
func TestRoutesMatchReference(t *testing.T) {
	var ms []*Machine
	for _, name := range []string{"Zoot", "Dancer", "Saturn", "IG", "MC512"} {
		ms = append(ms, ByName(name))
	}
	ms = append(ms, Synthetic(SyntheticSpec{
		Name: "syn", Boards: 3, SocketsPerBoard: 3, CoresPerSocket: 2,
		BusBW: 5e9, LinkBW: 3e9, BoardLinkBW: 2e9, CacheSize: 1 << 20, CachePortBW: 9e9,
		Spec: Spec{CoreCopyBW: 2e9},
	}))
	cl, err := LoadCluster("../../machines/cluster4.cluster")
	if err != nil {
		t.Fatal(err)
	}
	ms = append(ms, cl.Global)
	ring, err := ParseCluster(strings.NewReader(`cluster ring
node a machine=Dancer
node b machine=Dancer
node c machine=Dancer
node d machine=Dancer
node e machine=Dancer
link a b ab 1G lat=1.1u
link b c bc 2G lat=0.3u
link c d cd 1G lat=2.7u
link d e de 3G lat=0.7u
link e a ea 1G lat=1.9u
`))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := CompileCluster(ring, nil)
	if err != nil {
		t.Fatal(err)
	}
	ms = append(ms, rc.Global)
	for _, m := range ms {
		checkRoutes(t, m)
	}
}
