package main

import (
	"fmt"
	"time"

	"wormlan/internal/adapter"
	"wormlan/internal/des"
	"wormlan/internal/multicast"
	"wormlan/internal/network"
	"wormlan/internal/sim"
	"wormlan/internal/topology"
	"wormlan/internal/traffic"
	"wormlan/internal/updown"
	"wormlan/internal/vcroute"
)

// layerSpans is the host time one composed point spent inside each
// layer's entry points.  Setup spans are disjoint; sendNs is nested inside
// runNs (the generator calls the adapter from kernel events).
type layerSpans struct {
	topologyNs, updownNewNs, updownTableNs, vcrouteTableNs    int64
	networkNewNs, adaptiveTableNs, adapterNewNs, trafficNewNs int64
	setupAllocBytes                                           uint64
	runNs, sendNs                                             int64
}

func (s *layerSpans) setupNs() int64 {
	return s.topologyNs + s.updownNewNs + s.updownTableNs + s.vcrouteTableNs +
		s.networkNewNs + s.adaptiveTableNs + s.adapterNewNs + s.trafficNewNs
}

func (s *layerSpans) add(o layerSpans) {
	s.topologyNs += o.topologyNs
	s.updownNewNs += o.updownNewNs
	s.updownTableNs += o.updownTableNs
	s.vcrouteTableNs += o.vcrouteTableNs
	s.networkNewNs += o.networkNewNs
	s.adaptiveTableNs += o.adaptiveTableNs
	s.adapterNewNs += o.adapterNewNs
	s.trafficNewNs += o.trafficNewNs
	s.setupAllocBytes += o.setupAllocBytes
	s.runNs += o.runNs
	s.sendNs += o.sendNs
}

// span times f and adds its duration to *acc.
func span(acc *int64, f func() error) error {
	t0 := time.Now()
	err := f()
	*acc += int64(time.Since(t0))
	return err
}

// assembly is one point's simulation stack, composed from the layers'
// public constructors the same way sim.Run composes it for the
// adapter-level, fault-free configurations the workloads use.
type assembly struct {
	cfg  sim.Config
	k    *des.Kernel
	fab  *network.Fabric
	sys  *adapter.System
	sink *timingSink
	gen  *traffic.Generator
	end  des.Time
}

// compose builds the stack for cfgFn(seed), timing each layer's
// constructor into sp.  Nothing runs yet.
func compose(cfgFn func(uint64) sim.Config, seed uint64, sp *layerSpans) (*assembly, error) {
	alloc0 := runtimeMetric(heapAllocs)
	defer func() { sp.setupAllocBytes += runtimeMetric(heapAllocs) - alloc0 }()

	a := &assembly{}
	_ = span(&sp.topologyNs, func() error { a.cfg = cfgFn(seed); return nil })
	cfg := &a.cfg
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MeanWorm == 0 {
		cfg.MeanWorm = 400
	}
	if cfg.Drain == 0 {
		cfg.Drain = cfg.Measure / 2
	}
	a.k = des.NewKernel()
	var ud *updown.Routing
	if err := span(&sp.updownNewNs, func() (err error) {
		ud, err = updown.New(cfg.Graph, topology.None)
		return err
	}); err != nil {
		return nil, err
	}

	ncfg := cfg.Network
	var table *updown.Table
	var err error
	switch cfg.Route {
	case "", "updown":
		err = span(&sp.updownTableNs, func() (err error) {
			table, err = ud.NewTable(false)
			return err
		})
	default:
		err = span(&sp.vcrouteTableNs, func() (err error) {
			table, err = schemeTable(cfg, ud, &ncfg)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	if err := span(&sp.networkNewNs, func() (err error) {
		a.fab, err = network.New(a.k, cfg.Graph, ud, ncfg)
		return err
	}); err != nil {
		return nil, err
	}
	if cfg.Route == "adaptive" {
		if err := span(&sp.adaptiveTableNs, func() error {
			at, err := network.NewAdaptiveTable(cfg.Graph, ud)
			if err != nil {
				return err
			}
			return a.fab.SetAdaptive(at)
		}); err != nil {
			return nil, err
		}
	}

	hosts := cfg.Graph.Hosts()
	var groups [][]topology.NodeID
	var groupsOf map[topology.NodeID][]int
	if cfg.NumGroups > 0 {
		if groups, groupsOf, err = traffic.AssignGroups(hosts, cfg.NumGroups, cfg.GroupSize, cfg.Seed); err != nil {
			return nil, err
		}
	}
	if err := span(&sp.adapterNewNs, func() (err error) {
		acfg := cfg.Adapter
		acfg.Mode = cfg.Scheme.Mode
		acfg.CutThrough = cfg.Scheme.CutThrough
		acfg.TotalOrdering = cfg.TotalOrdering
		if a.sys, err = adapter.NewSystem(a.k, a.fab, table, acfg, cfg.Seed); err != nil {
			return err
		}
		for gi, set := range groups {
			grp, err := multicast.NewGroup(gi, set)
			if err != nil {
				return err
			}
			if _, err := a.sys.AddGroup(grp); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	windowEnd := cfg.Warmup + cfg.Measure
	a.end = windowEnd + cfg.Drain
	a.sink = &timingSink{sys: a.sys}
	if err := span(&sp.trafficNewNs, func() (err error) {
		a.gen, err = traffic.New(a.k, traffic.Config{
			OfferedLoad:   cfg.OfferedLoad,
			MeanWorm:      cfg.MeanWorm,
			MulticastProb: cfg.MulticastProb,
			Until:         windowEnd,
		}, hosts, groupsOf, a.sink, cfg.Seed)
		if err == nil {
			a.gen.Start()
		}
		return err
	}); err != nil {
		return nil, err
	}
	return a, nil
}

// schemeTable builds a non-up/down scheme's host table, settling the lane
// configuration it needs, and validates it, as sim.Run does.
func schemeTable(cfg *sim.Config, ud *updown.Routing, ncfg *network.Config) (*updown.Table, error) {
	var table *updown.Table
	var err error
	vcEncoded := false
	switch cfg.Route {
	case "vcmin":
		ncfg.NumVCs = max(ncfg.NumVCs, 2)
		ncfg.VCHeaders, vcEncoded = true, true
		table, err = vcroute.TorusMinimal(cfg.Graph, cfg.TorusGeom, ncfg.NumVCs)
	case "fullmesh":
		table, err = vcroute.FullMesh(cfg.Graph)
	case "adaptive":
		ncfg.NumVCs = max(ncfg.NumVCs, 2)
		ncfg.VCHeaders, vcEncoded = true, true
		table, err = vcroute.Adaptive(cfg.Graph, ud)
	case "clos":
		table, err = vcroute.Clos(cfg.Graph, cfg.ClosGeom, nil)
	case "shufflenet":
		ncfg.NumVCs = max(ncfg.NumVCs, 3)
		ncfg.VCHeaders, vcEncoded = true, true
		table, err = vcroute.Shufflenet(cfg.Graph, cfg.ShuffleGeom, ncfg.NumVCs, nil)
	default:
		return nil, fmt.Errorf("compose: unknown route scheme %q", cfg.Route)
	}
	if err != nil {
		return nil, err
	}
	return table, vcroute.ValidateTable(cfg.Graph, table, vcEncoded, true)
}

// run executes the composed point, timing Kernel.Run into sp.
func (a *assembly) run(sp *layerSpans) error {
	if err := span(&sp.runNs, func() error { return a.k.Run(a.end) }); err != nil {
		return err
	}
	sp.sendNs += a.sink.ns
	return a.gen.Err()
}

// counts are a composed point's machine-independent work counts.
func (a *assembly) counts() pointCounts {
	fc := a.fab.Counters()
	_, skipped := a.fab.SkipStats()
	st := a.sys.Stats()
	return pointCounts{
		Injected:     fc.Injected,
		Delivered:    fc.Delivered,
		FlitHops:     fc.FlitsCarried,
		Events:       a.k.Dispatched(),
		Ticks:        a.k.Ticks(),
		MaxQueue:     int64(a.k.MaxQueue()),
		SkippedTicks: skipped,
		Sends:        a.sink.sends,
		Forwards:     st.CutThroughFwds + st.StoreForwardFwd,
		Retransmits:  st.Retransmits,
		Nacks:        st.Nacks,
	}
}

// timingSink is the traffic.Sink the composed points hand the generator:
// it forwards to the adapter system and times each call.
type timingSink struct {
	sys   *adapter.System
	ns    int64
	sends int64
}

func (t *timingSink) SendUnicast(src, dst topology.NodeID, payload int) error {
	t0 := time.Now()
	err := t.sys.SendUnicast(src, dst, payload)
	t.ns += int64(time.Since(t0))
	t.sends++
	return err
}

func (t *timingSink) SendMulticast(src topology.NodeID, group, payload int) error {
	t0 := time.Now()
	err := t.sys.SendMulticast(src, group, payload)
	t.ns += int64(time.Since(t0))
	t.sends++
	return err
}
