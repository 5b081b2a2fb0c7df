package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"wormlan/internal/core"
	"wormlan/internal/sim"
	"wormlan/internal/sweep"
)

func TestRowDigest(t *testing.T) {
	row := core.Fig10Row{Scheme: "tree-flood", Load: 0.03, MCLatency: 1234.5, Uni: 321.25, Thpt: 0.0299, Samples: 77}
	d1, err := rowDigest(row)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := rowDigest(row)
	if d1 != d2 || len(d1) != 16 {
		t.Fatalf("digest not stable or not 16 hex digits: %q %q", d1, d2)
	}
	// Pin the encoding: a change here silently invalidates reference.json.
	if want := "119a6a8a346b0a79"; d1 != want {
		t.Fatalf("digest of the pinned row = %s, want %s", d1, want)
	}
	row.MCLatency = 1234.5000000000002 // one ulp away
	if d3, _ := rowDigest(row); d3 == d1 {
		t.Fatal("digest ignores a one-ulp change")
	}
}

func TestPkgOfAndLayerOf(t *testing.T) {
	for _, c := range []struct{ sym, pkg, layer string }{
		{"runtime.mallocgc", "runtime", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKeySmall", "internal/runtime/maps", "runtime"},
		{"runtime/internal/syscall.Syscall6", "runtime/internal/syscall", "runtime"},
		{"wormlan/internal/network.(*Fabric).Tick", "wormlan/internal/network", "network"},
		{"wormlan/internal/network.(*swState).transmit.func1", "wormlan/internal/network", "network"},
		{"wormlan/internal/eventq.(*Wheel).Pop", "wormlan/internal/eventq", "eventq"},
		{"wormlan/internal/eventq/heapref.(*Queue).Pop", "wormlan/internal/eventq/heapref", "eventq"},
		{"wormlan/internal/sweep.Run[go.shape.struct { main.x wormlan/internal/core.Y }].func1", "wormlan/internal/sweep", "other"},
		{"wormlan/internal/sim.Run", "wormlan/internal/sim", "other"},
		{"sync/atomic.(*Int64).Add", "sync/atomic", "other"},
		{"main.composedPoint", "main", "other"},
		{"", "", "other"},
	} {
		if got := pkgOf(c.sym); got != c.pkg {
			t.Errorf("pkgOf(%q) = %q, want %q", c.sym, got, c.pkg)
		}
		if got := layerOf(c.pkg); got != c.layer {
			t.Errorf("layerOf(%q) = %q, want %q", c.pkg, got, c.layer)
		}
	}
}

// pb is a tiny protobuf encoder for building test profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, body []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(body)))
	return append(b, body...)
}

func packed(vs ...uint64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

func TestFoldProfile(t *testing.T) {
	var p pb
	// string table: 0 "", 1..3 symbol names
	for _, s := range []string{"", "wormlan/internal/network.(*Fabric).Tick", "runtime.mallocgc", "main.main"} {
		p = p.bytes(6, []byte(s))
	}
	for id, name := range []uint64{1, 2, 3} {
		p = p.bytes(5, pb(nil).varint(1, uint64(id+1)).varint(2, name))
	}
	// Location 1 inlines mallocgc (leaf, first Line) into Tick; location 2
	// is Tick alone; location 3 is main.main.
	p = p.bytes(4, pb(nil).varint(1, 1).bytes(4, pb(nil).varint(1, 2)).bytes(4, pb(nil).varint(1, 1)))
	p = p.bytes(4, pb(nil).varint(1, 2).bytes(4, pb(nil).varint(1, 1)))
	p = p.bytes(4, pb(nil).varint(1, 3).bytes(4, pb(nil).varint(1, 3)))
	// Samples: packed and unpacked encodings, [count, nanoseconds].
	p = p.bytes(2, pb(nil).bytes(1, packed(1, 3)).bytes(2, packed(3, 30_000_000)))
	p = p.bytes(2, pb(nil).varint(1, 2).varint(1, 3).varint(2, 5).varint(2, 50_000_000))
	p = p.bytes(2, pb(nil).bytes(1, packed(3)).bytes(2, packed(1, 10_000_000)))
	p = p.varint(9, 12345) // time_nanos: ignored

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()
	got, err := foldProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"runtime": 30_000_000, "network": 50_000_000, "other": 10_000_000}
	if len(got) != len(want) {
		t.Fatalf("fold = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("fold = %v, want %v", got, want)
		}
	}
	if _, err := foldProfile([]byte("not gzip")); err == nil {
		t.Fatal("garbage profile accepted")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the emitted metrics must
// match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestEmittedMetrics runs the cheapest workload in both modes and checks
// the last output line against BENCHMARK.json: exactly its metrics, with
// its units, under well-formed names.
func TestEmittedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for mode, want := range map[string]map[string]string{"0": unitsOf(spec.EndToEnd), "1": unitsOf(spec.PerLayer)} {
		var out, errb bytes.Buffer
		if code := run([]string{"--workload", "longworm-ff", "--seed", "11", "--seconds", "1", "--trace", mode}, &out, &errb); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", mode, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v", mode, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("trace %s: verdict %+v", mode, res)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics emitted, BENCHMARK.json lists %d", mode, len(res.Metrics), len(want))
		}
		for name, m := range res.Metrics {
			if !metricName.MatchString(name) {
				t.Errorf("metric name %q is not letters, digits, _, . and -", name)
			}
			if u, ok := want[name]; !ok || u != m.Unit {
				t.Errorf("trace %s: metric %s [%s] not in BENCHMARK.json with that unit (%q)", mode, name, m.Unit, u)
			}
		}
	}
}

func unitsOf(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fig10-torus", "--trace", "2"},
		{"--workload", "fig10-torus", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed a result: %q", args, out.String())
		}
	}
}

// TestGridsMatchCore pins the benchmark's grids to the program: the three
// figure workloads must reproduce the core presets' rows exactly, and
// every workload must match reference.json at the reference seed, through
// sim.Run and through the composed path alike.  On a mismatch it prints
// the reference the code now produces, for a human to review and commit.
func TestGridsMatchCore(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload grid once per path")
	}
	presets := map[string]func() ([]string, error){
		"fig10-torus": func() ([]string, error) {
			return digests(core.Fig10With(context.Background(), core.Quick, defaultSeed, core.Options{Workers: 1}))
		},
		"fig11-shufflenet": func() ([]string, error) {
			return digests(core.Fig11With(context.Background(), core.Quick, defaultSeed, core.Options{Workers: 1}))
		},
		"routes-vc": func() ([]string, error) {
			var vs []core.RoutesVariant
			for _, n := range routesVariants {
				vs = append(vs, routesVariant(n))
			}
			return digests(core.RoutesWithVariants(context.Background(), core.Quick, defaultSeed, core.Options{Workers: 1}, vs))
		},
	}
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	fresh := referenceFile{Seed: defaultSeed, Workloads: map[string]workloadRef{}}
	for _, name := range workloadNames {
		w, _ := lookupWorkload(name)
		b := &bench{w: w, seed: defaultSeed, budget: time.Nanosecond}
		plain, err := b.runPass(simPoint, false, false)
		if err != nil {
			t.Fatal(err)
		}
		composed, err := b.runPass(composedPoint, false, false)
		if err != nil {
			t.Fatal(err)
		}
		var wr workloadRef
		for i, p := range w.points {
			u, c := plain.points[i], composed.points[i]
			if u.fail != "" || c.fail != "" {
				t.Errorf("%s %s: %s %s", name, p.label, u.fail, c.fail)
			}
			wr = append(wr, pointRef{Point: p.label, Row: u.digest, Events: u.counts.Events, FlitHops: u.counts.FlitHops,
				Ticks: c.counts.Ticks, SkippedTicks: c.counts.SkippedTicks, Sends: c.counts.Sends})
			if c.counts.Events != u.counts.Events || c.counts.FlitHops != u.counts.FlitHops ||
				c.counts.Injected != u.counts.Injected || c.counts.Delivered != u.counts.Delivered {
				t.Errorf("%s %s: composed counts %+v differ from sim.Run's %+v", name, p.label, c.counts, u.counts)
			}
		}
		fresh.Workloads[name] = wr
		if preset, ok := presets[name]; ok {
			want, err := preset()
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range w.points {
				if i >= len(want) || want[i] != wr[i].Row {
					t.Errorf("%s %s: benchmark row differs from the core preset's", name, p.label)
				}
			}
		}
	}
	if !equalRefs(ref, &fresh) {
		blob, _ := json.MarshalIndent(fresh, "", "  ")
		t.Errorf("reference.json is out of date; the code now produces:\n%s", blob)
	}
}

func digests[R any](rows []R, err error) ([]string, error) {
	if err != nil {
		return nil, err
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		if out[i], err = rowDigest(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func equalRefs(a, b *referenceFile) bool {
	if a.Seed != b.Seed || len(a.Workloads) != len(b.Workloads) {
		return false
	}
	for name, wa := range a.Workloads {
		wb := b.Workloads[name]
		if len(wa) != len(wb) {
			return false
		}
		for i := range wa {
			if wa[i] != wb[i] {
				return false
			}
		}
	}
	return true
}

// TestSeedDerivation pins the identity mirror: a benchmark cell's seed is
// the one sweep derives for the preset's own cell.
func TestSeedDerivation(t *testing.T) {
	w := fig10Workload()
	_, seed, err := sweep.PointIdentity(w.grid, defaultSeed, w.points[0].id)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := json.Marshal(w.points[0].id)
	if string(blob) != `{"scheme":"hamiltonian","load":0.015,"mcProb":0.1,"warmup":30000,"measure":120000}` || seed == 0 {
		t.Fatalf("identity %s seed %d", blob, seed)
	}
	labels := map[string]bool{}
	for _, n := range workloadNames {
		w, _ := lookupWorkload(n)
		for _, p := range w.points {
			if labels[n+"/"+p.label] {
				t.Fatalf("%s: duplicate point label %s", n, p.label)
			}
			labels[n+"/"+p.label] = true
		}
	}
	if len(labels) != 9+16+12+30 {
		t.Fatalf("workload sizes changed: %d points", len(labels))
	}
}

func TestPointFailure(t *testing.T) {
	ok := func() *sim.Results {
		r := &sim.Results{Drained: true, UniDeliveries: 5}
		r.Fabric.Injected, r.Fabric.Delivered = 7, 7
		return r
	}
	if msg := pointFailure(ok()); msg != "" {
		t.Fatalf("healthy point failed: %s", msg)
	}
	for name, breakIt := range map[string]func(r *sim.Results){
		"stalled":       func(r *sim.Results) { r.Stalled = true },
		"held":          func(r *sim.Results) { r.HeldChannels = 1 },
		"dropped":       func(r *sim.Results) { r.Fabric.WormsDropped = 1; r.Fabric.Delivered = 6 },
		"undelivered":   func(r *sim.Results) { r.Fabric.Delivered = 6 },
		"overdelivered": func(r *sim.Results) { r.Drained = false; r.Fabric.Delivered = 8 },
		"silent":        func(r *sim.Results) { r.UniDeliveries = 0 },
	} {
		r := ok()
		breakIt(r)
		if pointFailure(r) == "" {
			t.Errorf("%s: not flagged", name)
		}
	}
	cut := ok()
	cut.Drained, cut.Fabric.Delivered, cut.HeldChannels = false, 5, 2 // cut off mid-flight
	if msg := pointFailure(cut); msg != "" {
		t.Errorf("undrained point with worms in flight flagged: %s", msg)
	}
}

func TestCheckPasses(t *testing.T) {
	w := longwormWorkload()
	mk := func(digest string, events int64) *pass {
		ps := &pass{}
		for range w.points {
			ps.points = append(ps.points, pointOut{digest: digest, counts: pointCounts{Events: events, FlitHops: 10}})
		}
		return ps
	}
	c := &checker{w: w}
	c.checkPasses([]*pass{mk("a", 1), mk("a", 1), mk("b", 1), mk("a", 2)}, 1, nil, false)
	if n := len(w.points); c.attempts != 4*n || len(c.failed) != 2*n {
		t.Fatalf("attempts %d failed %d, want 4 and 2 per point (row drift in pass 3, count drift in pass 4): %v",
			c.attempts, len(c.failed), c.problems)
	}

	var ref workloadRef
	for _, p := range w.points {
		ref = append(ref, pointRef{Point: p.label, Row: "a", Events: 1, FlitHops: 10, Ticks: 3})
	}
	c = &checker{w: w}
	c.checkPasses([]*pass{mk("a", 1)}, 1, ref, false) // sim.Run path: ticks unobserved
	if len(c.failed) != 0 {
		t.Fatalf("matching reference flagged: %v", c.problems)
	}
	c.checkPasses([]*pass{mk("", 1)}, 2, ref, true) // composed path: ticks 0 != 3
	if len(c.failed) != len(w.points) || !strings.Contains(c.problems[0], "longworm@0.005") {
		t.Fatalf("composed count mismatch not flagged per point: %v", c.problems)
	}
}

// TestCalibration pins the reference kernel: deterministic work, so only
// the host's speed moves its time, and a positive time to scale by.
func TestCalibration(t *testing.T) {
	n := calibKernel()
	if n == 0 || calibKernel() != n {
		t.Fatalf("kernel kept %d keys, then %d", n, calibKernel())
	}
	if s := calibrate(); s <= 0 || s > 100*calibRefS {
		t.Fatalf("calibration took %g s", s)
	}
}
