package main

import (
	"fmt"

	"wormlan/internal/adapter"
	"wormlan/internal/core"
	"wormlan/internal/network"
	"wormlan/internal/sim"
	"wormlan/internal/topology"
)

// pointSpec is one cell of a workload grid.  id is the cell's sweep
// identity: it is serialised and hashed with the grid name and base seed
// into the per-point seed exactly as the core presets do, so a benchmark
// grid reproduces the preset's rows byte for byte (TestGridsMatchCore).
type pointSpec struct {
	label string
	id    any
	// config builds the point's simulation, topology included.
	config func(seed uint64) sim.Config
	// row extracts the figure row the preset would return.
	row func(r *sim.Results) any
}

// workload is one named grid the benchmark can run.
type workload struct {
	name   string
	grid   string // sweep grid name: per-point seeds derive from it
	points []pointSpec
}

// figPoint mirrors the sweep identity of core's figure cells field for
// field (names, tags, omitempty), which is what makes the derived seeds,
// and so the rows, identical to the presets'.
type figPoint struct {
	Scheme        string  `json:"scheme"`
	Load          float64 `json:"load"`
	MulticastProb float64 `json:"mcProb"`
	Warmup        int64   `json:"warmup"`
	Measure       int64   `json:"measure"`
	Route         string  `json:"route,omitempty"`
	NumVCs        int     `json:"nvc,omitempty"`
	Arb           string  `json:"arb,omitempty"`
}

// longwormPoint is the identity of a longworm-ff cell.
type longwormPoint struct {
	Load     float64 `json:"load"`
	MeanWorm int     `json:"meanWorm"`
	Warmup   int64   `json:"warmup"`
	Measure  int64   `json:"measure"`
	Rep      int     `json:"rep"`
}

// longwormRow is one longworm-ff cell's result.
type longwormRow struct {
	Load    float64
	UniLat  float64
	Thpt    float64
	Samples int64
}

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"fig10-torus", "fig11-shufflenet", "routes-vc", "longworm-ff"}

// lookupWorkload returns the named workload's grid.
func lookupWorkload(name string) (*workload, error) {
	switch name {
	case "fig10-torus":
		return fig10Workload(), nil
	case "fig11-shufflenet":
		return fig11Workload(), nil
	case "routes-vc":
		return routesWorkload(), nil
	case "longworm-ff":
		return longwormWorkload(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// fig10Workload is core.Fig10With at quick scale on one lane: contended
// adapter multicast on the 8x8 torus.
func fig10Workload() *workload {
	const warm, meas = 30_000, 120_000
	w := &workload{name: "fig10-torus", grid: "fig10"}
	for _, scheme := range core.Fig10Schemes {
		for _, load := range core.Fig10Loads(core.Quick) {
			scheme, load := scheme, load
			w.points = append(w.points, pointSpec{
				label: fmt.Sprintf("%s@%.3f", scheme.Name, load),
				id:    figPoint{Scheme: scheme.Name, Load: load, MulticastProb: 0.1, Warmup: warm, Measure: meas},
				config: func(seed uint64) sim.Config {
					return sim.Config{
						Graph:         topology.Torus(8, 8, 1, 1),
						Scheme:        scheme,
						OfferedLoad:   load,
						MulticastProb: 0.1,
						NumGroups:     10,
						GroupSize:     10,
						Warmup:        warm,
						Measure:       meas,
						Seed:          seed,
						Adapter:       adapter.Config{PlainForwarding: true},
					}
				},
				row: func(r *sim.Results) any {
					return core.Fig10Row{Scheme: scheme.Name, Load: load, MCLatency: r.MCLatency.Mean(),
						Uni: r.UniLatency.Mean(), Thpt: r.ThroughputPerHost, Samples: r.MCDeliveries}
				},
			})
		}
	}
	return w
}

// fig11Workload is core.Fig11With at quick scale: the 24-node shufflenet
// with 1000-byte-time links, where worms stream through long pipelines.
func fig11Workload() *workload {
	const warm, meas = 100_000, 500_000
	w := &workload{name: "fig11-shufflenet", grid: "fig11"}
	for _, scheme := range []sim.Scheme{sim.TreeFlood, sim.HamiltonianSF} {
		for _, prop := range core.Fig11Props {
			for _, load := range core.Fig11Loads(core.Quick) {
				scheme, prop, load := scheme, prop, load
				w.points = append(w.points, pointSpec{
					label: fmt.Sprintf("%s/p%.2f@%.3f", scheme.Name, prop, load),
					id:    figPoint{Scheme: scheme.Name, Load: load, MulticastProb: prop, Warmup: warm, Measure: meas},
					config: func(seed uint64) sim.Config {
						return sim.Config{
							Graph:         topology.BidirShufflenet(2, 3, 1000),
							Scheme:        scheme,
							OfferedLoad:   load,
							MulticastProb: prop,
							NumGroups:     4,
							GroupSize:     6,
							Warmup:        warm,
							Measure:       meas,
							Seed:          seed,
							Adapter:       adapter.Config{PlainForwarding: true},
						}
					},
					row: func(r *sim.Results) any {
						return core.Fig11Row{Scheme: scheme.Name, Prop: prop, Load: load,
							Delay: r.AllLatency.Mean(), MCLat: r.MCLatency.Mean()}
					},
				})
			}
		}
	}
	return w
}

// routesVariants are the multi-lane curves of the routing comparison: the
// only ones that exercise per-lane fabric paths, iSLIP, adaptive
// selection, and the vcroute and adaptive table builders.
var routesVariants = []string{"vcmin", "vcmin-islip", "adaptive", "shufflenet"}

// routesWorkload is core.RoutesWithVariants at quick scale over
// routesVariants: 64-host unicast.
func routesWorkload() *workload {
	const warm, meas = 20_000, 80_000
	w := &workload{name: "routes-vc", grid: "routes"}
	for _, name := range routesVariants {
		v := routesVariant(name)
		for _, load := range core.RoutesLoads(core.Quick) {
			load := load
			w.points = append(w.points, pointSpec{
				label: fmt.Sprintf("%s@%.3f", v.Name, load),
				id: figPoint{Scheme: v.Name, Load: load, Warmup: warm, Measure: meas,
					Route: v.Route, NumVCs: v.NumVCs, Arb: v.Arb},
				config: func(seed uint64) sim.Config { return routesConfig(v, load, warm, meas, seed) },
				row: func(r *sim.Results) any {
					return core.RoutesRow{Variant: v.Name, Load: load, UniLat: r.UniLatency.Mean(),
						Thpt: r.ThroughputPerHost, Samples: r.UniDeliveries}
				},
			})
		}
	}
	return w
}

// routesVariant returns core's curve of that name.
func routesVariant(name string) core.RoutesVariant {
	for _, v := range core.RoutesVariants {
		if v.Name == name {
			return v
		}
	}
	panic("wormbench: core has no routes variant " + name)
}

// routesConfig builds a routes-grid cell the way core's routes preset does
// for the routesVariants.
func routesConfig(v core.RoutesVariant, load float64, warm, meas int64, seed uint64) sim.Config {
	cfg := sim.Config{
		Route:       v.Route,
		Scheme:      sim.HamiltonianSF,
		OfferedLoad: load,
		Warmup:      warm,
		Measure:     meas,
		Seed:        seed,
	}
	if v.Route == "shufflenet" {
		cfg.Graph, cfg.ShuffleGeom = topology.BidirShufflenetWithGeom(2, 4, 1)
	} else {
		cfg.Graph, cfg.TorusGeom = topology.TorusWithGeom(8, 8, 1, 1)
	}
	cfg.Network.NumVCs = v.NumVCs
	if v.Arb == "islip" {
		cfg.Network.Arb = network.ArbISLIP
		cfg.Network.ArbIters = 2
	}
	return cfg
}

// Longworm-ff cells: unicast geometric worms with the prototype's
// Figure 12 mean size (8 KB cap, the traffic default) at low load over a
// long window, the steady-streaming shape fast-forward exists for.  With
// so few, so long worms, how many ticks fast-forward can skip depends
// strongly on the seed, and with it the CPU a pass takes, so every load
// runs under several derived seeds and a pass sums them.  Over ten base
// seeds the un-skipped ticks of a pass varied by 6.1% (standard deviation
// over mean) with five 3M-byte-time windows per load, and by 4.4% with ten
// 1.5M ones, the same simulated time.
var longwormLoads = []float64{0.005, 0.01, 0.02}

const (
	longwormMean    = 4096
	longwormWarmup  = 200_000
	longwormMeasure = 1_500_000
	longwormReps    = 10
)

// longwormWorkload is the benchmark's own grid over sim.Run.
func longwormWorkload() *workload {
	w := &workload{name: "longworm-ff", grid: "longworm-ff"}
	for _, load := range longwormLoads {
		for rep := 0; rep < longwormReps; rep++ {
			load := load
			w.points = append(w.points, pointSpec{
				label: fmt.Sprintf("longworm@%.3f#%d", load, rep),
				id:    longwormPoint{Load: load, MeanWorm: longwormMean, Warmup: longwormWarmup, Measure: longwormMeasure, Rep: rep},
				config: func(seed uint64) sim.Config {
					return sim.Config{
						Graph:       topology.Torus(8, 8, 1, 1),
						Scheme:      sim.HamiltonianSF, // adapter mode; unused by unicast traffic
						OfferedLoad: load,
						MeanWorm:    longwormMean,
						Warmup:      longwormWarmup,
						Measure:     longwormMeasure,
						Seed:        seed,
					}
				},
				row: func(r *sim.Results) any {
					return longwormRow{Load: load, UniLat: r.UniLatency.Mean(),
						Thpt: r.ThroughputPerHost, Samples: r.UniDeliveries}
				},
			})
		}
	}
	return w
}
