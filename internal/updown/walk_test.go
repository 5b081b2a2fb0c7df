package updown

import (
	"fmt"
	"slices"
	"testing"

	"wormlan/internal/rng"
	"wormlan/internal/topology"
)

// oracleRouteFrom is the per-pair search that route tables were once built
// with: a breadth-first search over (switch, phase) states from switch
// start that stops at the first state discovered on dst's switch.  It is
// the reference every route read back from a walk must reproduce.
func oracleRouteFrom(r *Routing, start, dst topology.NodeID, treeOnly bool) (Route, error) {
	g := r.G
	sSrc := start
	sDst, dstPortOnSwitch := g.HostAttachment(dst)
	if sSrc == sDst {
		return Route{Src: start, Dst: dst,
			Ports:    []topology.PortID{dstPortOnSwitch},
			Switches: []topology.NodeID{sSrc}}, nil
	}
	type state struct {
		node topology.NodeID
		down bool
	}
	type prevHop struct {
		state state
		port  topology.PortID
	}
	idx := func(s state) int {
		i := int(s.node) * 2
		if s.down {
			i++
		}
		return i
	}
	prev := make([]prevHop, 2*len(g.Nodes))
	seen := make([]bool, 2*len(g.Nodes))
	origin := state{sSrc, false}
	seen[idx(origin)] = true
	queue := []state{origin}
	var goal state
	found := false
	for qi := 0; qi < len(queue) && !found; qi++ {
		cur := queue[qi]
		for pi, p := range g.Node(cur.node).Ports {
			if !p.Wired() || g.Node(p.Peer).Kind != topology.Switch {
				continue
			}
			if treeOnly && !r.inTree[cur.node][pi] {
				continue
			}
			if r.fail.LinkDead(g, cur.node, topology.PortID(pi)) {
				continue
			}
			up := r.IsUp(cur.node, topology.PortID(pi))
			if cur.down && up {
				continue
			}
			next := state{p.Peer, cur.down || !up}
			if seen[idx(next)] {
				continue
			}
			seen[idx(next)] = true
			prev[idx(next)] = prevHop{state: cur, port: topology.PortID(pi)}
			if p.Peer == sDst {
				goal = next
				found = true
				break
			}
			queue = append(queue, next)
		}
	}
	if !found {
		return Route{}, fmt.Errorf("no legal route from switch %d to host %d", start, dst)
	}
	var ports []topology.PortID
	var sws []topology.NodeID
	for cur := goal; cur != origin; {
		h := prev[idx(cur)]
		ports = append(ports, h.port)
		sws = append(sws, h.state.node)
		cur = h.state
	}
	slices.Reverse(ports)
	slices.Reverse(sws)
	ports = append(ports, dstPortOnSwitch)
	sws = append(sws, sDst)
	return Route{Src: start, Dst: dst, Ports: ports, Switches: sws}, nil
}

// oracleRoute is the per-pair host-to-host route, with the errors route
// reports for an unroutable pair.
func oracleRoute(r *Routing, src, dst topology.NodeID, treeOnly bool) (Route, error) {
	if r.fail != nil && (!r.Reachable(src) || !r.Reachable(dst)) {
		return Route{}, fmt.Errorf("updown: no surviving route from host %d to host %d", src, dst)
	}
	sSrc, _ := r.G.HostAttachment(src)
	rt, err := oracleRouteFrom(r, sSrc, dst, treeOnly)
	if err != nil {
		return Route{}, fmt.Errorf("updown: no legal route from host %d to host %d (treeOnly=%v)",
			src, dst, treeOnly)
	}
	rt.Src = src
	return rt, nil
}

// oracleTable is the all-pairs table built one pair at a time: NewTable's
// rows and first error, or NewTableSurviving's rows with unroutable pairs
// left empty.
func oracleTable(r *Routing, treeOnly, surviving bool) ([][]Route, error) {
	hosts := r.G.Hosts()
	rows := make([][]Route, len(hosts))
	for i, src := range hosts {
		rows[i] = make([]Route, len(hosts))
		if surviving && !r.Reachable(src) {
			continue
		}
		for j, dst := range hosts {
			if i == j || surviving && !r.Reachable(dst) {
				continue
			}
			rt, err := oracleRoute(r, src, dst, treeOnly)
			if err != nil {
				if surviving {
					continue
				}
				return nil, err
			}
			rows[i][j] = rt
		}
	}
	return rows, nil
}

func sameRoute(a, b Route) bool {
	return a.Src == b.Src && a.Dst == b.Dst &&
		slices.Equal(a.Ports, b.Ports) && slices.Equal(a.Switches, b.Switches)
}

func equivTopologies() map[string]*topology.Graph {
	gs := map[string]*topology.Graph{
		"torus8x8":   topology.Torus(8, 8, 1, 1),
		"torus4x4x2": topology.Torus(4, 4, 2, 1),
		"shufflenet": topology.BidirShufflenet(2, 3, 1),
		"clos":       topology.Clos(4, 2, 3, 1),
		"fattree":    topology.FatTreeish(3, 2, true),
		"ring5":      topology.Ring(5, 1),
	}
	for seed := uint64(1); seed <= 4; seed++ {
		gs[fmt.Sprintf("random%d", seed)] = topology.Random(10+int(seed)*3, 2+int(seed%3), seed)
	}
	return gs
}

// randomFailures fails a seeded handful of cables (host cables included)
// and switches of g, never all switches.
func randomFailures(g *topology.Graph, seed uint64) *Failures {
	src := rng.New(seed, 7)
	fail := NewFailures()
	var edges []Edge
	for i := range g.Nodes {
		n := topology.NodeID(i)
		for pi, p := range g.Nodes[i].Ports {
			if p.Wired() && n < p.Peer {
				edges = append(edges, Edge{n, topology.PortID(pi)})
			}
		}
	}
	for k := 1 + src.Intn(4); k > 0; k-- {
		e := edges[src.Intn(len(edges))]
		fail.FailLink(g, e.Node, e.Port)
	}
	sws := g.Switches()
	for k := src.Intn(3); k > 0 && len(fail.Switches) < len(sws)-1; k-- {
		fail.FailSwitch(sws[src.Intn(len(sws))])
	}
	return fail
}

// checkTable asserts that tbl (with build error err) matches the oracle.
func checkTable(t *testing.T, r *Routing, treeOnly, surviving bool, tbl *Table, err error) {
	t.Helper()
	want, werr := oracleTable(r, treeOnly, surviving)
	if werr != nil || err != nil {
		if werr == nil || err == nil || werr.Error() != err.Error() {
			t.Fatalf("treeOnly=%v surviving=%v: error %v, oracle %v", treeOnly, surviving, err, werr)
		}
		return
	}
	for i := range want {
		for j := range want[i] {
			if got := tbl.routes[i][j]; !sameRoute(got, want[i][j]) {
				t.Fatalf("treeOnly=%v surviving=%v: route %d->%d = %+v, oracle %+v",
					treeOnly, surviving, tbl.Hosts[i], tbl.Hosts[j], got, want[i][j])
			}
		}
	}
}

func TestWalkTablesMatchPerPairSearch(t *testing.T) {
	for name, g := range equivTopologies() {
		t.Run(name, func(t *testing.T) {
			r := mustRouting(t, g)
			for _, treeOnly := range []bool{false, true} {
				tbl, err := r.NewTable(treeOnly)
				checkTable(t, r, treeOnly, false, tbl, err)
				tbl, err = r.NewTableSurviving(treeOnly)
				checkTable(t, r, treeOnly, true, tbl, err)
			}
			for seed := uint64(1); seed <= 6; seed++ {
				fr, err := WithoutEdges(g, topology.None, randomFailures(g, seed))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for _, treeOnly := range []bool{false, true} {
					tbl, err := fr.NewTableSurviving(treeOnly)
					checkTable(t, fr, treeOnly, true, tbl, err)
					tbl, err = fr.NewTable(treeOnly)
					checkTable(t, fr, treeOnly, false, tbl, err)
				}
			}
		})
	}
}

func TestRoutesFromSwitchMatchPerPairSearch(t *testing.T) {
	for name, g := range equivTopologies() {
		t.Run(name, func(t *testing.T) {
			routings := []*Routing{mustRouting(t, g)}
			for seed := uint64(1); seed <= 3; seed++ {
				fr, err := WithoutEdges(g, topology.None, randomFailures(g, seed))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				routings = append(routings, fr)
			}
			hosts := g.Hosts()
			for _, r := range routings {
				for _, sw := range g.Switches() {
					rts, err := r.RoutesFromSwitch(sw)
					if r.Level[sw] < 0 {
						if err == nil {
							t.Fatalf("switch %d outside the routed component accepted", sw)
						}
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					for j, h := range hosts {
						var want Route
						if r.fail == nil || r.Reachable(h) {
							want, _ = oracleRouteFrom(r, sw, h, false)
						}
						if !sameRoute(rts[j], want) {
							t.Fatalf("switch %d -> host %d = %+v, oracle %+v", sw, h, rts[j], want)
						}
					}
				}
			}
		})
	}
}

// TestNewTableAllocsLinearInHosts pins table construction to a bounded
// number of allocations per host: a return to per-pair scratch or per-pair
// route slices would cost O(hosts²).
func TestNewTableAllocsLinearInHosts(t *testing.T) {
	g := topology.Torus(8, 8, 1, 1)
	r := mustRouting(t, g)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := r.NewTable(false); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 8 * float64(len(g.Hosts())); allocs > limit {
		t.Fatalf("NewTable on the 8x8 torus: %.0f allocs, want <= %.0f (8 per host)", allocs, limit)
	}
}

func BenchmarkNewTable(b *testing.B) {
	g := topology.Torus(8, 8, 1, 1)
	r, err := New(g, topology.None)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.NewTable(false); err != nil {
			b.Fatal(err)
		}
	}
}
