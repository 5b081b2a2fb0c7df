package updown

import (
	"fmt"

	"wormlan/internal/topology"
)

// Edge identifies one side of a full-duplex cable by the node and port it
// leaves from.  A failure of either side kills the whole cable.
type Edge struct {
	Node topology.NodeID
	Port topology.PortID
}

// Failures is the set of dead cables and dead switches a routing must
// avoid — the surviving-subgraph input to WithoutEdges and Recompute.
// A nil *Failures means a healthy fabric everywhere it is accepted.
type Failures struct {
	// Links holds the failed cables; FailLink records both directed sides
	// so lookups need no peer resolution.
	Links map[Edge]bool
	// Switches holds crashed switches; every cable touching a crashed
	// switch is implicitly dead.
	Switches map[topology.NodeID]bool
}

// NewFailures returns an empty failure set.
func NewFailures() *Failures {
	return &Failures{
		Links:    make(map[Edge]bool),
		Switches: make(map[topology.NodeID]bool),
	}
}

// Empty reports whether the set records no failures.
func (f *Failures) Empty() bool {
	return f == nil || (len(f.Links) == 0 && len(f.Switches) == 0)
}

// FailLink records the cable out of port p of node n (both sides) as dead.
func (f *Failures) FailLink(g *topology.Graph, n topology.NodeID, p topology.PortID) {
	port := g.Node(n).Ports[p]
	if !port.Wired() {
		panic(fmt.Sprintf("updown: failing unwired port %d of node %d", p, n))
	}
	f.Links[Edge{n, p}] = true
	f.Links[Edge{port.Peer, port.PeerPort}] = true
}

// FailSwitch records switch n as crashed.
func (f *Failures) FailSwitch(n topology.NodeID) { f.Switches[n] = true }

// SwitchDead reports whether switch n has crashed.
func (f *Failures) SwitchDead(n topology.NodeID) bool {
	return f != nil && f.Switches[n]
}

// LinkDead reports whether the cable out of port p of node n is unusable:
// explicitly failed, or touching a crashed switch on either end.
func (f *Failures) LinkDead(g *topology.Graph, n topology.NodeID, p topology.PortID) bool {
	if f == nil {
		return false
	}
	if f.Links[Edge{n, p}] {
		return true
	}
	node := g.Node(n)
	if node.Kind == topology.Switch && f.Switches[n] {
		return true
	}
	peer := node.Ports[p].Peer
	return g.Node(peer).Kind == topology.Switch && f.Switches[peer]
}

// Clone returns an independent copy of the set (nil clones to an empty set).
func (f *Failures) Clone() *Failures {
	out := NewFailures()
	if f == nil {
		return out
	}
	//wormlint:ordered set copied into a set; insertion order is invisible
	for e := range f.Links {
		out.Links[e] = true
	}
	//wormlint:ordered set copied into a set; insertion order is invisible
	for s := range f.Switches {
		out.Switches[s] = true
	}
	return out
}

// WithoutEdges computes the up/down labelling of the surviving subgraph of
// g: the BFS spanning tree simply never crosses dead links or enters dead
// switches, reusing the machinery of New.  If root is topology.None the
// lowest-numbered live switch is used (the same election rule as the
// distributed mapper, so a re-map after the old root dies converges to the
// same choice).  Switches cut off from the root keep Level -1 and the
// hosts behind them are reported unreachable by Reachable; routing to them
// fails rather than mis-delivering.
func WithoutEdges(g *topology.Graph, root topology.NodeID, fail *Failures) (*Routing, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("updown: invalid topology: %w", err)
	}
	var live []topology.NodeID
	for _, sw := range g.Switches() {
		if !fail.SwitchDead(sw) {
			live = append(live, sw)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("updown: no surviving switches")
	}
	if root == topology.None {
		root = live[0]
	}
	if g.Node(root).Kind != topology.Switch {
		return nil, fmt.Errorf("updown: root %d is not a switch", root)
	}
	if fail.SwitchDead(root) {
		return nil, fmt.Errorf("updown: root switch %d is dead", root)
	}
	r := &Routing{
		G:          g,
		Root:       root,
		Level:      make([]int, len(g.Nodes)),
		Parent:     make([]topology.NodeID, len(g.Nodes)),
		ParentPort: make([]topology.PortID, len(g.Nodes)),
		inTree:     make([][]bool, len(g.Nodes)),
		fail:       fail,
	}
	for i := range g.Nodes {
		r.Level[i] = -1
		r.Parent[i] = topology.None
		r.ParentPort[i] = topology.NoPort
		r.inTree[i] = make([]bool, len(g.Nodes[i].Ports))
	}
	r.Level[root] = 0
	queue := []topology.NodeID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for pi, p := range g.Node(u).Ports {
			if !p.Wired() || g.Node(p.Peer).Kind != topology.Switch {
				continue
			}
			if fail.SwitchDead(p.Peer) || fail.LinkDead(g, u, topology.PortID(pi)) {
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
	for i := range g.Nodes {
		for pi, p := range g.Nodes[i].Ports {
			if !p.Wired() {
				continue
			}
			hostSide := g.Nodes[i].Kind == topology.Host || g.Node(p.Peer).Kind == topology.Host
			if hostSide && !fail.LinkDead(g, topology.NodeID(i), topology.PortID(pi)) {
				r.inTree[i][pi] = true
			}
		}
	}
	return r, nil
}

// Recompute rebuilds the routing after (additional) failures, keeping the
// current root when it survived and re-electing the lowest live switch
// when it did not — what the Myrinet mapper daemon does after it detects a
// dead link or switch.
func (r *Routing) Recompute(fail *Failures) (*Routing, error) {
	root := r.Root
	if fail.SwitchDead(root) {
		root = topology.None
	}
	return WithoutEdges(r.G, root, fail)
}

// Failures returns the failure set the routing was computed against (nil
// for a healthy-fabric routing from New).
func (r *Routing) Failures() *Failures { return r.fail }

// Reachable reports whether host h can be routed to under this labelling:
// its attachment switch survives in the root's component and its host link
// is alive.
func (r *Routing) Reachable(h topology.NodeID) bool {
	if r.G.Node(h).Kind != topology.Host {
		return false
	}
	sw, swPort := r.G.HostAttachment(h)
	if sw == topology.None || r.Level[sw] < 0 {
		return false
	}
	return !r.fail.LinkDead(r.G, sw, swPort)
}

// NewTableSurviving precomputes routes between every ordered pair of
// mutually reachable hosts, leaving unroutable pairs empty instead of
// failing the whole table the way NewTable does.  Use Table.HasRoute to
// test a pair before Lookup.
func (r *Routing) NewTableSurviving(treeOnly bool) (*Table, error) {
	return r.newTable(treeOnly, true)
}

// HasRoute reports whether the table holds a route from src to dst.
func (t *Table) HasRoute(src, dst topology.NodeID) bool {
	i, oki := t.index[src]
	j, okj := t.index[dst]
	return oki && okj && len(t.routes[i][j].Ports) > 0
}
