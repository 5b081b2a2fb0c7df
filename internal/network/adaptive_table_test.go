package network

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"wormlan/internal/topology"
	"wormlan/internal/updown"
)

// escapeDigest hashes every escape slot of t: slot index, length (-1 for
// nil) and bytes.
func escapeDigest(t *AdaptiveTable) string {
	h := sha256.New()
	var buf [8]byte
	for slot, esc := range t.escape {
		n := int64(len(esc))
		if esc == nil {
			n = -1
		}
		binary.LittleEndian.PutUint32(buf[:4], uint32(slot))
		binary.LittleEndian.PutUint32(buf[4:], uint32(n))
		h.Write(buf[:])
		h.Write(esc)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// switchLink returns the first switch-to-switch port of sw.
func switchLink(g *topology.Graph, sw topology.NodeID) topology.PortID {
	for pi, p := range g.Node(sw).Ports {
		if p.Wired() && g.Node(p.Peer).Kind == topology.Switch {
			return topology.PortID(pi)
		}
	}
	panic(fmt.Sprintf("switch %d has no switch link", sw))
}

// TestAdaptiveEscapeTableUnchanged pins the escape routes of the 8x8 torus,
// healthy and with failed links and a failed switch, to the digests of the
// per-pair up*/down* search they were first computed with.
func TestAdaptiveEscapeTableUnchanged(t *testing.T) {
	g := topology.Torus(8, 8, 1, 1)
	sws := g.Switches()
	fail := updown.NewFailures()
	for _, sw := range []topology.NodeID{sws[0], sws[9], sws[35]} {
		fail.FailLink(g, sw, switchLink(g, sw))
	}
	fail.FailSwitch(sws[20])
	for _, tc := range []struct {
		name string
		fail *updown.Failures
		want string
	}{
		{"healthy", nil, "54e5dd55e979e37b66394b625ada5dbc319833876b5623eb6f1e18d84b9f07f8"},
		{"failed", fail, "4748866e3b0b00508db856de13975633d22cb80cebafea42c7077848b9ec3944"},
	} {
		var ud *updown.Routing
		var err error
		if tc.fail == nil {
			ud, err = updown.New(g, topology.None)
		} else {
			ud, err = updown.WithoutEdges(g, topology.None, tc.fail)
		}
		if err != nil {
			t.Fatal(err)
		}
		at, err := NewAdaptiveTable(g, ud)
		if err != nil {
			t.Fatal(err)
		}
		if got := escapeDigest(at); got != tc.want {
			t.Errorf("%s: escape digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

func BenchmarkNewAdaptiveTable(b *testing.B) {
	g := topology.Torus(8, 8, 1, 1)
	ud, err := updown.New(g, topology.None)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewAdaptiveTable(g, ud); err != nil {
			b.Fatal(err)
		}
	}
}
