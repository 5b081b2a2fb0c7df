package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"wormlan/internal/sim"
)

// pointCounts are one point's machine-independent work counts.  Fields a
// run path cannot observe stay zero (sim.Run exposes neither tick nor
// send counts).
type pointCounts struct {
	Injected, Delivered, FlitHops, Events, Ticks, MaxQueue int64
	SkippedTicks, Sends, Forwards, Retransmits, Nacks      int64
}

// resultCounts extracts the counts sim.Run reports.
func resultCounts(r *sim.Results) pointCounts {
	return pointCounts{
		Injected:    r.Fabric.Injected,
		Delivered:   r.Fabric.Delivered,
		FlitHops:    r.Fabric.FlitsCarried,
		Events:      r.EventsDispatched,
		MaxQueue:    int64(r.MaxQueueDepth),
		Forwards:    r.Adapter.CutThroughFwds + r.Adapter.StoreForwardFwd,
		Retransmits: r.Adapter.Retransmits,
		Nacks:       r.Adapter.Nacks,
	}
}

// pointFailure returns why a finished fault-free point is broken, or "".
func pointFailure(r *sim.Results) string {
	f := r.Fabric
	switch {
	case r.Stalled:
		return "stalled: worms frozen in the fabric"
	case r.Drained && r.HeldChannels > 0:
		return fmt.Sprintf("%d channels still held on a drained run", r.HeldChannels)
	case f.WormsDropped != 0:
		return fmt.Sprintf("%d worms dropped on a fault-free run", f.WormsDropped)
	case f.Delivered > f.Injected, r.Drained && f.Delivered != f.Injected:
		return fmt.Sprintf("conservation broken: injected %d, delivered %d (drained=%v)", f.Injected, f.Delivered, r.Drained)
	case r.MCDeliveries+r.UniDeliveries == 0:
		return "no deliveries in the measurement window"
	}
	return ""
}

// rowDigest is a short stable hash of a figure row: SHA-256 of its JSON
// encoding, whose floats round-trip exactly, so any change in any field
// changes the digest.
func rowDigest(row any) (string, error) {
	b, err := json.Marshal(row)
	if err != nil {
		return "", fmt.Errorf("row digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// workloadRef is what reference.json stores for one workload at the
// reference seed: each point's row digest and machine-independent counts.
type workloadRef []pointRef

type pointRef struct {
	Point        string `json:"point"`
	Row          string `json:"row"`
	Events       int64  `json:"events"`
	FlitHops     int64  `json:"flitHops"`
	Ticks        int64  `json:"ticks"`
	SkippedTicks int64  `json:"skippedTicks"`
	Sends        int64  `json:"sends"`
}

type referenceFile struct {
	Seed      uint64                 `json:"seed"`
	Workloads map[string]workloadRef `json:"workloads"`
}

//go:embed reference.json
var referenceJSON []byte

// loadReference parses the reference digests and counts recorded with the
// benchmark.  They change only by hand, together with a program change
// that is meant to move the figures; a mismatch is never re-recorded.
func loadReference() (*referenceFile, error) {
	var ref referenceFile
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &ref, nil
}

// checkAgainstRef compares one point's row digest and counts with its
// reference entry.  Only what the run path observes is compared: sim.Run
// reports rows, events and flit-hops; a composed point reports no row but
// all five counts.
func checkAgainstRef(ref pointRef, label, digest string, c pointCounts, composed bool) string {
	switch {
	case ref.Point != label:
		return fmt.Sprintf("reference entry is %q", ref.Point)
	case digest != "" && digest != ref.Row:
		return fmt.Sprintf("row digest %s, reference %s", digest, ref.Row)
	case c.Events != ref.Events || c.FlitHops != ref.FlitHops:
		return fmt.Sprintf("events/flit-hops %d/%d, reference %d/%d", c.Events, c.FlitHops, ref.Events, ref.FlitHops)
	case composed && (c.Ticks != ref.Ticks || c.SkippedTicks != ref.SkippedTicks || c.Sends != ref.Sends):
		return fmt.Sprintf("ticks/skipped/sends %d/%d/%d, reference %d/%d/%d",
			c.Ticks, c.SkippedTicks, c.Sends, ref.Ticks, ref.SkippedTicks, ref.Sends)
	}
	return ""
}
