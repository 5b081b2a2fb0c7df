package network

// Duato-style adaptive routing support.
//
// An adaptive fabric routes unicast worms whose header is the single
// route.AdaptivePort marker byte.  At every switch the marker is consumed
// and re-decided locally:
//
//   - destination attached here: deliver on the host port (lane 0);
//   - otherwise, if an adaptive lane (vc >= 1) of a minimal productive port
//     is free, alive, and unstopped right now, take it and re-stamp the
//     marker on the exiting copy;
//   - otherwise fall back to the escape path: the precomputed up*/down*
//     route from this switch to the destination, stamped as plain lane-0
//     port bytes, which downstream switches consume like any explicit
//     source route.
//
// Deadlock freedom is Duato's argument specialized to this fabric: adaptive
// lanes are acquired only when immediately free, so no worm ever *waits* on
// one — a blocked head waits either on the escape output (lane 0) or on a
// host port.  Lane-0 switch-to-switch channels carry only escape traffic,
// and every escape route is a legal up*/down* walk, so the waits-for
// relation among them embeds in the acyclic up-before-down channel order;
// host ports always drain.  Hence no cycle, with no restriction on how far
// a worm wandered adaptively before bailing out.
//
// The decision is re-evaluated every tick while the head waits, so a worm
// blocked toward its escape route still grabs an adaptive lane the moment
// one frees up.
//
// AdaptiveTable is rebuilt from the surviving topology on every remap
// (fault recovery) and installed with Fabric.SetAdaptive; candidate ports
// additionally check link liveness at selection time, so a kill is routed
// around immediately, before the mapper has even noticed.

import (
	"fmt"

	"wormlan/internal/des"
	"wormlan/internal/route"
	"wormlan/internal/topology"
	"wormlan/internal/updown"
)

// adaptiveMarker is the one-byte header stamped on adaptively forwarded
// copies.  Shared and never mutated, so re-stamping allocates nothing.
var adaptiveMarker = []byte{route.AdaptivePort}

// AdaptiveTable holds the per-(switch, destination-host) routing state of
// an adaptive fabric: minimal productive ports and the escape route.  All
// lookups are dense-slice indexing — the switch hot path touches no maps.
type AdaptiveTable struct {
	nh       int
	hostIdx  []int32           // NodeID -> host index, -1 for non-hosts
	attach   []topology.NodeID // host index -> attachment switch
	hostPort []topology.PortID // host index -> host port on that switch

	// cands[sw*nh+hi] lists the productive switch ports at sw toward host
	// hi: wired, live at build time, one hop closer by BFS distance over
	// the surviving switch graph.  Ascending port order for determinism.
	cands [][]topology.PortID
	// escape[sw*nh+hi] is the up*/down* route from sw to host hi as plain
	// port bytes (ending with the host port); nil when unreachable.
	escape [][]byte
}

// NewAdaptiveTable computes adaptive routing state over the component of g
// that ud routes (its failure set, if any, is honoured: dead links and
// switches contribute neither candidates nor escape routes).
func NewAdaptiveTable(g *topology.Graph, ud *updown.Routing) (*AdaptiveTable, error) {
	hosts := g.Hosts()
	fail := ud.Failures()
	t := &AdaptiveTable{
		nh:       len(hosts),
		hostIdx:  make([]int32, len(g.Nodes)),
		attach:   make([]topology.NodeID, len(hosts)),
		hostPort: make([]topology.PortID, len(hosts)),
		cands:    make([][]topology.PortID, len(g.Nodes)*len(hosts)),
		escape:   make([][]byte, len(g.Nodes)*len(hosts)),
	}
	for i := range t.hostIdx {
		t.hostIdx[i] = -1
	}
	for hi, h := range hosts {
		t.hostIdx[h] = int32(hi)
		sw, swPort := g.HostAttachment(h)
		if sw == topology.None {
			return nil, fmt.Errorf("network: host %d has no attachment switch", h)
		}
		t.attach[hi] = sw
		t.hostPort[hi] = swPort
	}
	// Per destination host: BFS switch distances over surviving links, then
	// candidates (strictly distance-decreasing ports).  needEscape marks the
	// slots that get an escape route: switches other than the attach switch
	// that it reaches over surviving links.  A detected failure set can be
	// one-sided, so an up*/down* route existing does not imply this.
	needEscape := make([]bool, len(t.escape))
	dist := make([]int, len(g.Nodes))
	queue := make([]topology.NodeID, 0, len(g.Nodes))
	for hi, h := range hosts {
		if !ud.Reachable(h) {
			continue // no candidates, no escapes: senders drop or prune
		}
		for i := range dist {
			dist[i] = -1
		}
		root := t.attach[hi]
		dist[root] = 0
		queue = queue[:0]
		queue = append(queue, root)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for pi, p := range g.Node(u).Ports {
				if !p.Wired() || g.Node(p.Peer).Kind != topology.Switch {
					continue
				}
				if fail.SwitchDead(p.Peer) || fail.LinkDead(g, u, topology.PortID(pi)) {
					continue
				}
				if dist[p.Peer] < 0 {
					dist[p.Peer] = dist[u] + 1
					queue = append(queue, p.Peer)
				}
			}
		}
		for _, sw := range g.Switches() {
			if dist[sw] <= 0 || fail.SwitchDead(sw) {
				continue // the attach switch delivers; cut-off switches drop
			}
			var cs []topology.PortID
			for pi, p := range g.Node(sw).Ports {
				if !p.Wired() || g.Node(p.Peer).Kind != topology.Switch {
					continue
				}
				if fail.LinkDead(g, sw, topology.PortID(pi)) {
					continue
				}
				if dist[p.Peer] >= 0 && dist[p.Peer] == dist[sw]-1 {
					cs = append(cs, topology.PortID(pi))
				}
			}
			slot := int(sw)*t.nh + hi
			t.cands[slot] = cs
			needEscape[slot] = true
		}
	}
	// Escape routes: one up*/down* walk per switch serves every host.
	for _, sw := range g.Switches() {
		rts, err := ud.RoutesFromSwitch(sw)
		if err != nil {
			continue // outside the routed component: no escapes from here
		}
		for hi, rt := range rts {
			slot := int(sw)*t.nh + hi
			if !needEscape[slot] || len(rt.Ports) == 0 {
				continue // unreachable by up/down: escape stays nil
			}
			for _, p := range rt.Ports {
				if int(p) > route.MaxVCPort {
					// Escape bytes ride a VC-headered fabric as plain lane-0
					// bytes, so they must stay below the vc<<6 encoding space.
					return nil, fmt.Errorf("network: escape route %d->%d uses port %d > %d",
						sw, hosts[hi], p, route.MaxVCPort)
				}
			}
			esc, err := route.EncodeUnicast(rt.Ports)
			if err != nil {
				return nil, fmt.Errorf("network: escape route %d->%d: %w", sw, hosts[hi], err)
			}
			t.escape[slot] = esc
		}
	}
	return t, nil
}

// hostIndexOf returns the dense host index of n, or -1.
func (t *AdaptiveTable) hostIndexOf(n topology.NodeID) int {
	if int(n) >= len(t.hostIdx) {
		return -1
	}
	return int(t.hostIdx[n])
}

// SetAdaptive installs (or replaces, after a remap) the adaptive routing
// table.  The fabric then interprets route.AdaptivePort header bytes as the
// route-anywhere marker; worms already in flight keep working, since the
// marker's meaning is positional, not table-versioned.  VCHeaders fabrics
// with NumVCs >= 2 are required: lane 0 is the escape lane and lanes >= 1
// the adaptive ones.
func (f *Fabric) SetAdaptive(t *AdaptiveTable) error {
	if t != nil && (f.nvc < 2 || !f.Cfg.VCHeaders) {
		return fmt.Errorf("network: adaptive routing needs VCHeaders and NumVCs >= 2 (have VCHeaders=%v NumVCs=%d)",
			f.Cfg.VCHeaders, f.nvc)
	}
	f.adaptive = t
	return nil
}

// adaptiveSelect makes (or re-makes) the per-hop routing decision for a
// pmWait head holding the adaptive marker, then attempts the grant.  Runs
// every tick until the head binds or drops, so the choice always reflects
// current lane occupancy and liveness.
func (s *swState) adaptiveSelect(in *inPort, now des.Time) {
	t := s.f.adaptive
	hi := t.hostIndexOf(in.worm.Dst)
	if hi < 0 {
		s.adaptiveDrop(in)
		return
	}
	nvc := s.f.nvc
	if t.attach[hi] == s.node {
		// Destination attached here: deliver on the host port's lane 0.
		// Waiting on a busy host port is safe — host channels always drain.
		in.reqOuts = append(in.reqOuts[:0], int(t.hostPort[hi])*nvc)
		in.reqStamps = append(in.reqStamps[:0], nil)
		s.tryGrant(in, now)
		return
	}
	slot := int(s.node)*t.nh + hi
	// Adaptive lanes: any vc >= 1 of a minimal productive port, taken only
	// when immediately usable, so nothing ever waits on an adaptive lane.
	for _, p := range t.cands[slot] {
		base := int(p) * nvc
		o := &s.out[base]
		if o.link.dead {
			continue
		}
		for v := 1; v < nvc; v++ {
			ov := &s.out[base+v]
			if ov.boundIn < 0 && !ov.link.stopped(uint8(v)) {
				in.reqOuts = append(in.reqOuts[:0], base+v)
				in.reqStamps = append(in.reqStamps[:0], adaptiveMarker)
				s.tryGrant(in, now)
				return
			}
		}
	}
	// Escape: the deadlock-free lane-0 up*/down* route.  The first byte is
	// consumed here (it is this switch's output port); the rest is stamped
	// on the exiting copy.  Blocking here is the one legal wait.
	esc := t.escape[slot]
	if len(esc) == 0 {
		s.adaptiveDrop(in)
		return
	}
	in.reqOuts = append(in.reqOuts[:0], int(esc[0])*nvc)
	in.reqStamps = append(in.reqStamps[:0], esc[1:])
	s.tryGrant(in, now)
}

// adaptiveDrop drains a marker worm with no way forward (destination
// unreachable under the current map).
func (s *swState) adaptiveDrop(in *inPort) {
	s.f.ctr.StaleRouteDrops++
	if in.worm.Epoch != s.f.epoch {
		s.f.ctr.EpochMismatches++
	}
	s.f.dropWorm(in.worm)
	in.setMode(pmDrop)
	in.blocked = false
	s.drainDrop(in)
}
