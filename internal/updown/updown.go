// Package updown implements the deadlock-free up*/down* routing scheme
// introduced by Autonet [SBB+91] and employed by Myrinet, as described in
// Section 2 of the paper.
//
// One switch is chosen as the root of a spanning tree (computed here by
// breadth-first search; Myrinet computes it with a background "mapping"
// algorithm).  Every directed switch-to-switch link is labelled 'up' if it
// points from a lower to a higher level in the tree — i.e. toward a node at
// a smaller distance from the root — with node IDs breaking ties between
// same-level nodes.  A legal route traverses zero or more 'up' links
// followed by zero or more 'down' links.  Because every cycle in the
// network would need a down->up transition somewhere, circular waits are
// impossible and the routing is deadlock-free.
//
// The package also provides the tree-restricted variant used by the
// switch-level multicast scheme of Section 3, in which worms may only use
// links of the spanning tree itself (crosslinks are excluded entirely).
package updown

import (
	"fmt"

	"wormlan/internal/topology"
)

// Routing holds the up/down labelling of a topology and computes routes.
type Routing struct {
	G    *topology.Graph
	Root topology.NodeID

	// Level is the BFS distance of each switch from the root
	// (only meaningful for switch nodes; hosts get -1).
	Level []int
	// Parent is each switch's spanning-tree parent (root and hosts: None).
	Parent []topology.NodeID
	// ParentPort is the output port on the switch leading to its parent.
	ParentPort []topology.PortID

	// inTree[n][p] reports whether the directed link out of port p of node
	// n is part of the spanning tree (host links are always in tree).
	inTree [][]bool

	// fail is the failure set the labelling was computed against; nil for a
	// healthy fabric (New).  Routes never cross links it marks dead.
	fail *Failures
}

// New computes the up/down labelling of g rooted at the given switch.
// If root is topology.None, the lowest-numbered switch is used.
func New(g *topology.Graph, root topology.NodeID) (*Routing, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("updown: invalid topology: %w", err)
	}
	switches := g.Switches()
	if len(switches) == 0 {
		return nil, fmt.Errorf("updown: no switches")
	}
	if root == topology.None {
		root = switches[0]
	}
	if g.Node(root).Kind != topology.Switch {
		return nil, fmt.Errorf("updown: root %d is not a switch", root)
	}
	r := &Routing{
		G:          g,
		Root:       root,
		Level:      make([]int, len(g.Nodes)),
		Parent:     make([]topology.NodeID, len(g.Nodes)),
		ParentPort: make([]topology.PortID, len(g.Nodes)),
		inTree:     make([][]bool, len(g.Nodes)),
	}
	for i := range g.Nodes {
		r.Level[i] = -1
		r.Parent[i] = topology.None
		r.ParentPort[i] = topology.NoPort
		r.inTree[i] = make([]bool, len(g.Nodes[i].Ports))
	}
	// BFS over switches only; deterministic because ports are scanned in
	// index order and the queue is FIFO.
	r.Level[root] = 0
	queue := []topology.NodeID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for pi, p := range g.Node(u).Ports {
			if !p.Wired() || g.Node(p.Peer).Kind != topology.Switch {
				continue
			}
			if r.Level[p.Peer] < 0 {
				r.Level[p.Peer] = r.Level[u] + 1
				r.Parent[p.Peer] = u
				r.ParentPort[p.Peer] = p.PeerPort
				r.inTree[u][pi] = true
				r.inTree[p.Peer][p.PeerPort] = true
				queue = append(queue, p.Peer)
			}
		}
	}
	// Host links belong to the tree by definition.
	for i := range g.Nodes {
		for pi, p := range g.Nodes[i].Ports {
			if p.Wired() && (g.Nodes[i].Kind == topology.Host || g.Node(p.Peer).Kind == topology.Host) {
				r.inTree[i][pi] = true
			}
		}
	}
	return r, nil
}

// IsUp reports whether traversing the link out of port p of switch n is an
// 'up' traversal: toward a strictly lower level, or toward an equal-level
// switch with a lower node ID.
func (r *Routing) IsUp(n topology.NodeID, p topology.PortID) bool {
	port := r.G.Node(n).Ports[p]
	peer := port.Peer
	if r.G.Node(peer).Kind != topology.Switch {
		return false
	}
	lu, lv := r.Level[n], r.Level[peer]
	if lv != lu {
		return lv < lu
	}
	return peer < n
}

// InTree reports whether the link out of port p of node n is part of the
// up/down spanning tree.
func (r *Routing) InTree(n topology.NodeID, p topology.PortID) bool {
	return r.inTree[n][p]
}

// Route is a Myrinet-style source route: the output port to take at each
// switch on the path, in order.  The final port delivers the worm to the
// destination host adapter.
type Route struct {
	Src, Dst topology.NodeID
	Ports    []topology.PortID
	// Switches visited, parallel to Ports (Switches[i] takes Ports[i]).
	Switches []topology.NodeID
}

// Hops returns the number of switch traversals on the route.
func (rt Route) Hops() int { return len(rt.Ports) }

// walk is one breadth-first search of the up*/down* state graph from a
// source switch, run to completion.  A state is a switch plus the phase of
// the walk (still allowed to go up, or gone down), indexed node*2+phase.
//
// first[n] is the state at which switch n was first discovered.  Ports are
// scanned in index order and the queue is FIFO, so that is exactly the state
// a search for n alone would stop at: every route read back from one walk is
// the shortest legal walk to its switch, with the same deterministic
// tie-break among equal-length routes.  One walk therefore serves every
// route leaving its source switch, and its scratch is reused from one source
// to the next.
type walk struct {
	r        *Routing
	treeOnly bool
	start    topology.NodeID // source switch of the last run; None before any
	st       []walkState
	first    []int32 // per node: first state discovered there, -1 if none
	queue    []int32
}

type walkState struct {
	prev  int32           // predecessor state; -1 at the origin
	depth int32           // switch hops from the origin; -1 while undiscovered
	port  topology.PortID // port taken out of the predecessor
}

// newWalk allocates walk scratch sized for r's topology.  treeOnly
// restricts the walk to spanning-tree links, the crosslink-free discipline
// required by the switch-level multicast scheme of Section 3.
func (r *Routing) newWalk(treeOnly bool) *walk {
	n := len(r.G.Nodes)
	return &walk{
		r:        r,
		treeOnly: treeOnly,
		start:    topology.None,
		st:       make([]walkState, 2*n),
		first:    make([]int32, n),
		queue:    make([]int32, 0, 2*n),
	}
}

// from runs the walk from switch start, starting in the up phase exactly as
// a freshly injected worm's route does.
func (w *walk) from(start topology.NodeID) {
	r, g := w.r, w.r.G
	w.start = start
	for i := range w.st {
		w.st[i].depth = -1
	}
	for i := range w.first {
		w.first[i] = -1
	}
	origin := int32(start) * 2
	w.st[origin] = walkState{prev: -1, depth: 0, port: topology.NoPort}
	w.first[start] = origin
	w.queue = append(w.queue[:0], origin)
	for qi := 0; qi < len(w.queue); qi++ {
		cur := w.queue[qi]
		node, down := topology.NodeID(cur/2), cur%2 == 1
		for pi, p := range g.Node(node).Ports {
			if !p.Wired() || g.Node(p.Peer).Kind != topology.Switch {
				continue
			}
			if w.treeOnly && !r.inTree[node][pi] {
				continue
			}
			if r.fail.LinkDead(g, node, topology.PortID(pi)) {
				continue
			}
			up := r.IsUp(node, topology.PortID(pi))
			if down && up {
				continue // down->up transition is illegal
			}
			next := int32(p.Peer) * 2
			if down || !up {
				next++
			}
			if w.st[next].depth >= 0 {
				continue
			}
			w.st[next] = walkState{prev: cur, depth: w.st[cur].depth + 1, port: topology.PortID(pi)}
			if w.first[p.Peer] < 0 {
				w.first[p.Peer] = next
			}
			w.queue = append(w.queue, next)
		}
	}
}

// hops returns the port count of the route from the walk's source switch to
// host dst, or 0 when no legal walk reaches dst's switch.
func (w *walk) hops(dst topology.NodeID) int {
	sw, _ := w.r.G.HostAttachment(dst)
	if w.first[sw] < 0 {
		return 0
	}
	return int(w.st[w.first[sw]].depth) + 1
}

// hostHops is hops for the route from host src (attached to the walk's
// source switch) to host dst, with route's error for an unroutable pair.
func (w *walk) hostHops(src, dst topology.NodeID) (int, error) {
	r := w.r
	if r.fail != nil && (!r.Reachable(src) || !r.Reachable(dst)) {
		return 0, fmt.Errorf("updown: no surviving route from host %d to host %d", src, dst)
	}
	n := w.hops(dst)
	if n == 0 {
		return 0, fmt.Errorf("updown: no legal route from host %d to host %d (treeOnly=%v)",
			src, dst, w.treeOnly)
	}
	return n, nil
}

// routeTo reads the route to host dst back from the walk into ports and
// sws, which must both have length hops(dst).
func (w *walk) routeTo(src, dst topology.NodeID, ports []topology.PortID, sws []topology.NodeID) Route {
	sw, hostPort := w.r.G.HostAttachment(dst)
	last := len(ports) - 1
	ports[last], sws[last] = hostPort, sw
	for s, i := w.first[sw], last-1; i >= 0; s, i = w.st[s].prev, i-1 {
		ports[i] = w.st[s].port
		sws[i] = topology.NodeID(w.st[s].prev / 2)
	}
	return Route{Src: src, Dst: dst, Ports: ports, Switches: sws}
}

// fillRow sets row[j] to the route from src to hosts[j] for every j with
// lens[j] > 0, where lens[j] is that route's hops.
// Every route of the row is carved from one exactly sized backing array
// per field, capped so that an append to one route cannot run into the
// next.  Sizing up front matters: growing the arrays would leave earlier
// routes pinning every outgrown copy.
func (w *walk) fillRow(src topology.NodeID, hosts []topology.NodeID, lens []int, row []Route) {
	total := 0
	for _, n := range lens {
		total += n
	}
	ports := make([]topology.PortID, total)
	sws := make([]topology.NodeID, total)
	off := 0
	for j, n := range lens {
		if n == 0 {
			continue
		}
		end := off + n
		row[j] = w.routeTo(src, hosts[j], ports[off:end:end], sws[off:end:end])
		off = end
	}
}

// route computes a shortest legal up*/down* route from host src to host
// dst.  Among equal-length routes the choice is deterministic (the paper's
// simulation likewise fixes one path per source-destination pair).
func (r *Routing) route(src, dst topology.NodeID, treeOnly bool) (Route, error) {
	g := r.G
	if g.Node(src).Kind != topology.Host || g.Node(dst).Kind != topology.Host {
		return Route{}, fmt.Errorf("updown: route endpoints must be hosts (got %s, %s)",
			g.Node(src).Kind, g.Node(dst).Kind)
	}
	if src == dst {
		return Route{}, fmt.Errorf("updown: route to self (host %d)", src)
	}
	w := r.newWalk(treeOnly)
	sSrc, _ := g.HostAttachment(src)
	w.from(sSrc)
	n, err := w.hostHops(src, dst)
	if err != nil {
		return Route{}, err
	}
	return w.routeTo(src, dst, make([]topology.PortID, n), make([]topology.NodeID, n)), nil
}

// RoutesFromSwitch computes, from one walk, the shortest legal up*/down*
// route from switch sw to every host of the topology (in Hosts order),
// starting in the up phase exactly as a freshly injected worm's walk would.
// Entries for hosts that cannot be reached are empty.  Adaptive routing
// uses these as escape routes: a worm that wandered off the up/down order
// on the adaptive lanes re-enters it here, and because every
// escape-resident worm then only holds and waits on lane-0 channels of one
// legal walk, the union of waits stays acyclic.  The returned routes have
// Src set to the switch, so they must not be fed to VerifyRoute (which
// expects host endpoints).
func (r *Routing) RoutesFromSwitch(sw topology.NodeID) ([]Route, error) {
	if r.G.Node(sw).Kind != topology.Switch {
		return nil, fmt.Errorf("updown: RoutesFromSwitch wants a switch, got a %s", r.G.Node(sw).Kind)
	}
	if r.Level[sw] < 0 {
		return nil, fmt.Errorf("updown: switch %d is not in the routed component", sw)
	}
	w := r.newWalk(false)
	w.from(sw)
	hosts := r.G.Hosts()
	lens := make([]int, len(hosts))
	for j, h := range hosts {
		if r.fail == nil || r.Reachable(h) {
			lens[j] = w.hops(h)
		}
	}
	row := make([]Route, len(hosts))
	w.fillRow(sw, hosts, lens, row)
	return row, nil
}

// Route computes a shortest legal up*/down* route between two hosts.
func (r *Routing) Route(src, dst topology.NodeID) (Route, error) {
	return r.route(src, dst, false)
}

// RouteTreeOnly computes a shortest route restricted to spanning-tree links.
func (r *Routing) RouteTreeOnly(src, dst topology.NodeID) (Route, error) {
	return r.route(src, dst, true)
}

// Table precomputes routes between every ordered pair of hosts.
type Table struct {
	Hosts  []topology.NodeID
	index  map[topology.NodeID]int
	routes [][]Route
}

// NewTable builds a route table over all hosts of the topology.
func (r *Routing) NewTable(treeOnly bool) (*Table, error) {
	return r.newTable(treeOnly, false)
}

// newTable builds the all-pairs table with one walk per source switch.
// With surviving set, pairs without a route are left empty (see
// NewTableSurviving); otherwise the first such pair fails the build.
func (r *Routing) newTable(treeOnly, surviving bool) (*Table, error) {
	hosts := r.G.Hosts()
	t := &Table{Hosts: hosts, index: make(map[topology.NodeID]int, len(hosts))}
	for i, h := range hosts {
		t.index[h] = i
	}
	t.routes = make([][]Route, len(hosts))
	w := r.newWalk(treeOnly)
	lens := make([]int, len(hosts))
	for i, src := range hosts {
		t.routes[i] = make([]Route, len(hosts))
		if surviving && !r.Reachable(src) {
			continue
		}
		// Builders number a switch's hosts consecutively, so re-walking
		// only on a change of source switch walks each switch once.
		if sw, _ := r.G.HostAttachment(src); sw != w.start {
			w.from(sw)
		}
		for j, dst := range hosts {
			lens[j] = 0
			if j == i || surviving && !r.Reachable(dst) {
				continue
			}
			n, err := w.hostHops(src, dst)
			if err != nil {
				if surviving {
					// Reachable endpoints in the same component always
					// route (up to the common root works); cross-component
					// pairs are simply absent.
					continue
				}
				return nil, err
			}
			lens[j] = n
		}
		w.fillRow(src, hosts, lens, t.routes[i])
	}
	return t, nil
}

// NewCustomTable wraps externally computed routes (an alternative routing
// scheme — e.g. VC-partitioned minimal torus routing or full-mesh direct
// routing, see internal/vcroute) in a Table, so the adapter and simulation
// layers consume every scheme through one type.  routes must be square
// over hosts, with routes[i][j] the route from hosts[i] to hosts[j].
func NewCustomTable(hosts []topology.NodeID, routes [][]Route) (*Table, error) {
	if len(routes) != len(hosts) {
		return nil, fmt.Errorf("updown: %d route rows for %d hosts", len(routes), len(hosts))
	}
	t := &Table{Hosts: hosts, index: make(map[topology.NodeID]int, len(hosts))}
	for i, h := range hosts {
		t.index[h] = i
		if len(routes[i]) != len(hosts) {
			return nil, fmt.Errorf("updown: route row %d has %d entries for %d hosts",
				i, len(routes[i]), len(hosts))
		}
	}
	t.routes = routes
	return t, nil
}

// Lookup returns the precomputed route from src to dst.
func (t *Table) Lookup(src, dst topology.NodeID) Route {
	return t.routes[t.index[src]][t.index[dst]]
}

// MeanHops returns the average switch-hop count over all ordered host
// pairs; the paper notes up/down paths "are generally not shortest paths".
func (t *Table) MeanHops() float64 {
	total, n := 0, 0
	for i := range t.routes {
		for j := range t.routes[i] {
			if i == j {
				continue
			}
			total += t.routes[i][j].Hops()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// VerifyRoute checks that a route is a legal up*/down* walk through the
// topology ending at the destination host.  Used by tests and by the
// deadlock-freedom property checks.
func (r *Routing) VerifyRoute(rt Route) error {
	g := r.G
	sw, _ := g.HostAttachment(rt.Src)
	goneDown := false
	for i, port := range rt.Ports {
		if rt.Switches[i] != sw {
			return fmt.Errorf("hop %d: route says switch %d, walk is at %d", i, rt.Switches[i], sw)
		}
		if int(port) >= len(g.Node(sw).Ports) {
			return fmt.Errorf("hop %d: port %d out of range at switch %d", i, port, sw)
		}
		p := g.Node(sw).Ports[port]
		if !p.Wired() {
			return fmt.Errorf("hop %d: port %d of switch %d unwired", i, port, sw)
		}
		if r.fail.LinkDead(g, sw, port) {
			return fmt.Errorf("hop %d: port %d of switch %d crosses a failed link", i, port, sw)
		}
		if g.Node(p.Peer).Kind == topology.Switch {
			up := r.IsUp(sw, port)
			if goneDown && up {
				return fmt.Errorf("hop %d: illegal down->up transition at switch %d", i, sw)
			}
			if !up {
				goneDown = true
			}
			sw = p.Peer
		} else {
			if i != len(rt.Ports)-1 {
				return fmt.Errorf("hop %d: reached host %d before end of route", i, p.Peer)
			}
			if p.Peer != rt.Dst {
				return fmt.Errorf("route delivers to host %d, want %d", p.Peer, rt.Dst)
			}
			return nil
		}
	}
	return fmt.Errorf("route ends at switch %d without reaching host %d", sw, rt.Dst)
}
