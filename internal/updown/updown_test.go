package updown

import (
	"testing"
	"testing/quick"

	"wormlan/internal/topology"
)

func mustRouting(t *testing.T, g *topology.Graph) *Routing {
	t.Helper()
	r, err := New(g, topology.None)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func allPairRoutes(t *testing.T, r *Routing, treeOnly bool) []Route {
	t.Helper()
	hosts := r.G.Hosts()
	var routes []Route
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			var rt Route
			var err error
			if treeOnly {
				rt, err = r.RouteTreeOnly(a, b)
			} else {
				rt, err = r.Route(a, b)
			}
			if err != nil {
				t.Fatalf("route %d->%d: %v", a, b, err)
			}
			if err := r.VerifyRoute(rt); err != nil {
				t.Fatalf("route %d->%d invalid: %v", a, b, err)
			}
			routes = append(routes, rt)
		}
	}
	return routes
}

func TestLevelsOnLine(t *testing.T) {
	g := topology.Line(4, 1)
	r := mustRouting(t, g)
	sw := g.Switches()
	for i, s := range sw {
		if r.Level[s] != i {
			t.Fatalf("switch %d level = %d, want %d", s, r.Level[s], i)
		}
	}
	if r.Parent[sw[0]] != topology.None {
		t.Fatal("root has a parent")
	}
	for i := 1; i < len(sw); i++ {
		if r.Parent[sw[i]] != sw[i-1] {
			t.Fatalf("parent of s%d = %d", i, r.Parent[sw[i]])
		}
	}
}

func TestRouteSingleSwitch(t *testing.T) {
	g := topology.Star(4)
	r := mustRouting(t, g)
	hosts := g.Hosts()
	rt, err := r.Route(hosts[0], hosts[2])
	if err != nil {
		t.Fatal(err)
	}
	if rt.Hops() != 1 {
		t.Fatalf("star route hops = %d, want 1", rt.Hops())
	}
	if err := r.VerifyRoute(rt); err != nil {
		t.Fatal(err)
	}
}

func TestRouteToSelfFails(t *testing.T) {
	g := topology.Star(2)
	r := mustRouting(t, g)
	h := g.Hosts()[0]
	if _, err := r.Route(h, h); err == nil {
		t.Fatal("route to self succeeded")
	}
}

func TestRouteEndpointsMustBeHosts(t *testing.T) {
	g := topology.Line(2, 1)
	r := mustRouting(t, g)
	if _, err := r.Route(g.Switches()[0], g.Hosts()[0]); err == nil {
		t.Fatal("switch endpoint accepted")
	}
}

func TestRouteLine(t *testing.T) {
	g := topology.Line(4, 1)
	r := mustRouting(t, g)
	hosts := g.Hosts()
	rt, err := r.Route(hosts[0], hosts[3])
	if err != nil {
		t.Fatal(err)
	}
	if rt.Hops() != 4 { // 3 switch-switch hops + final host port
		t.Fatalf("line route hops = %d, want 4", rt.Hops())
	}
}

func TestAllPairsLegalOnAllTopologies(t *testing.T) {
	cases := map[string]*topology.Graph{
		"torus4x4":   topology.Torus(4, 4, 1, 1),
		"torus8x8":   topology.Torus(8, 8, 1, 1),
		"shufflenet": topology.BidirShufflenet(2, 3, 1000),
		"myrinet4":   topology.Myrinet4(),
		"fattree":    topology.FatTreeish(4, 2, true),
		"random":     topology.Random(12, 4, 5),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			r := mustRouting(t, g)
			routes := allPairRoutes(t, r, false)
			if err := VerifyDeadlockFree(g, routes); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
	}
}

func TestTreeOnlyRoutesAvoidCrosslinks(t *testing.T) {
	g := topology.FatTreeish(4, 2, true)
	r := mustRouting(t, g)
	routes := allPairRoutes(t, r, true)
	for _, rt := range routes {
		for i, port := range rt.Ports {
			if !r.InTree(rt.Switches[i], port) {
				t.Fatalf("tree-only route %d->%d uses crosslink at switch %d port %d",
					rt.Src, rt.Dst, rt.Switches[i], port)
			}
		}
	}
	if err := VerifyDeadlockFree(g, routes); err != nil {
		t.Fatal(err)
	}
}

func TestTreeOnlyNoLongerThanNecessary(t *testing.T) {
	// On a tree topology, tree-only and unrestricted routes coincide.
	g := topology.FatTreeish(3, 2, false)
	r := mustRouting(t, g)
	hosts := g.Hosts()
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			free, _ := r.Route(a, b)
			tree, _ := r.RouteTreeOnly(a, b)
			if free.Hops() != tree.Hops() {
				t.Fatalf("route %d->%d: free %d hops, tree %d hops", a, b, free.Hops(), tree.Hops())
			}
		}
	}
}

func TestUpDownComplementary(t *testing.T) {
	g := topology.Torus(4, 4, 1, 1)
	r := mustRouting(t, g)
	for _, sw := range g.Switches() {
		for pi, p := range g.Node(sw).Ports {
			if !p.Wired() || g.Node(p.Peer).Kind != topology.Switch {
				continue
			}
			here := r.IsUp(sw, topology.PortID(pi))
			back := r.IsUp(p.Peer, p.PeerPort)
			if here == back {
				t.Fatalf("link %d<->%d is up in both directions (or neither)", sw, p.Peer)
			}
		}
	}
}

func TestRouteTable(t *testing.T) {
	g := topology.Myrinet4()
	r := mustRouting(t, g)
	tbl, err := r.NewTable(false)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	rt := tbl.Lookup(hosts[0], hosts[7])
	if err := r.VerifyRoute(rt); err != nil {
		t.Fatal(err)
	}
	if tbl.MeanHops() <= 0 {
		t.Fatal("mean hops not positive")
	}
	direct, _ := r.Route(hosts[0], hosts[7])
	if rt.Hops() != direct.Hops() {
		t.Fatal("table route differs from direct route")
	}
}

func TestUpDownLongerThanShortest(t *testing.T) {
	// The paper notes up/down paths are generally not shortest paths.  On a
	// 5-ring rooted at s0, the clockwise path h2->h4 needs a down->up
	// transition, so the route must detour through the root: 3 switch hops
	// where the shortest path has 2.
	g := topology.Ring(5, 1)
	r := mustRouting(t, g)
	hosts := g.Hosts()
	longer := 0
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			rt, err := r.Route(a, b)
			if err != nil {
				t.Fatal(err)
			}
			min := g.SwitchHops(a, b) + 1 // + final host port
			if rt.Hops() < min {
				t.Fatalf("route %d->%d shorter than shortest path", a, b)
			}
			if rt.Hops() > min {
				longer++
			}
		}
	}
	if longer == 0 {
		t.Fatal("up/down routing never exceeded shortest path on a 5-ring; labelling suspect")
	}
}

func TestRootCongestion(t *testing.T) {
	// Links near the root should carry a disproportionate share of routes
	// ("links near the root may get congested", Section 2).
	g := topology.Torus(4, 4, 1, 1)
	r := mustRouting(t, g)
	routes := allPairRoutes(t, r, false)
	counts := map[topology.NodeID]int{}
	for _, rt := range routes {
		for _, sw := range rt.Switches {
			counts[sw]++
		}
	}
	max := 0
	var busiest topology.NodeID
	for sw, c := range counts {
		if c > max {
			max, busiest = c, sw
		}
	}
	if r.Level[busiest] > 1 {
		t.Fatalf("busiest switch %d is at level %d; expected near root", busiest, r.Level[busiest])
	}
}

func TestVerifyRouteCatchesCorruption(t *testing.T) {
	g := topology.Line(3, 1)
	r := mustRouting(t, g)
	hosts := g.Hosts()
	rt, _ := r.Route(hosts[0], hosts[2])
	bad := rt
	bad.Ports = append([]topology.PortID(nil), rt.Ports...)
	bad.Ports[0] = topology.PortID(99)
	if err := r.VerifyRoute(bad); err == nil {
		t.Fatal("corrupted route verified")
	}
	bad2 := rt
	bad2.Dst = hosts[1]
	if err := r.VerifyRoute(bad2); err == nil {
		t.Fatal("route with wrong destination verified")
	}
}

func TestFindCycleDetectsCycle(t *testing.T) {
	a := Channel{1, 0}
	b := Channel{2, 0}
	c := Channel{3, 0}
	dep := map[Channel][]Channel{a: {b}, b: {c}, c: {a}}
	cycle := FindCycle(dep)
	if len(cycle) != 3 {
		t.Fatalf("cycle = %v", cycle)
	}
	acyclic := map[Channel][]Channel{a: {b}, b: {c}}
	if FindCycle(acyclic) != nil {
		t.Fatal("false positive cycle")
	}
}

func TestDeadlockFreedomProperty(t *testing.T) {
	// Property: for any random connected topology, the all-pairs up/down
	// routes induce an acyclic channel dependency graph.
	err := quick.Check(func(seed uint64, nRaw, dRaw uint8) bool {
		n := int(nRaw%14) + 3
		d := int(dRaw%3) + 2
		g := topology.Random(n, d, seed)
		r, err := New(g, topology.None)
		if err != nil {
			return false
		}
		hosts := g.Hosts()
		var routes []Route
		for _, a := range hosts {
			for _, b := range hosts {
				if a == b {
					continue
				}
				rt, err := r.Route(a, b)
				if err != nil || r.VerifyRoute(rt) != nil {
					return false
				}
				routes = append(routes, rt)
			}
		}
		return VerifyDeadlockFree(g, routes) == nil
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMinimalRoutesWouldDeadlockOnRing(t *testing.T) {
	// Negative control: unrestricted shortest-path routing on a ring (all
	// going clockwise) has a cyclic channel dependency.  This is the
	// textbook wormhole deadlock that up/down routing exists to avoid.
	g := topology.New()
	n := 4
	sws := make([]topology.NodeID, n)
	for i := 0; i < n; i++ {
		sws[i] = g.AddSwitch("")
	}
	ports := make([]topology.PortID, n) // clockwise output port of switch i
	for i := 0; i < n; i++ {
		pa, _ := g.Connect(sws[i], sws[(i+1)%n], 1)
		ports[i] = pa
	}
	hosts := make([]topology.NodeID, n)
	hostPorts := make([]topology.PortID, n)
	for i := 0; i < n; i++ {
		hosts[i] = g.AddHost("")
		hp, _ := g.Connect(sws[i], hosts[i], 1)
		hostPorts[i] = hp
	}
	// Hand-build clockwise 2-hop routes i -> i+2.
	var routes []Route
	for i := 0; i < n; i++ {
		j := (i + 2) % n
		routes = append(routes, Route{
			Src: hosts[i], Dst: hosts[j],
			Switches: []topology.NodeID{sws[i], sws[(i+1)%n], sws[j]},
			Ports:    []topology.PortID{ports[i], ports[(i+1)%n], hostPorts[j]},
		})
	}
	if err := VerifyDeadlockFree(g, routes); err == nil {
		t.Fatal("clockwise ring routing reported deadlock-free")
	}
}

func TestNewRejectsBadRoot(t *testing.T) {
	g := topology.Star(2)
	if _, err := New(g, g.Hosts()[0]); err == nil {
		t.Fatal("host accepted as up/down root")
	}
}

func TestExplicitRoot(t *testing.T) {
	g := topology.Torus(4, 4, 1, 1)
	root := g.Switches()[5]
	r, err := New(g, root)
	if err != nil {
		t.Fatal(err)
	}
	if r.Root != root || r.Level[root] != 0 {
		t.Fatal("explicit root not honoured")
	}
}
