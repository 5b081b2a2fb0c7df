package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run's CPU profile is folded by package in-process.  All the
// fabric work happens under one Kernel.Run call, so timed spans alone
// cannot split it; the profile's leaf frames can.  This is a minimal
// reader for the gzipped profile.proto that runtime/pprof writes: samples,
// locations, functions and the string table, nothing else.

// shareLayers are the packages the cpu_share.<pkg> metrics report; every
// other package's samples land in "other".
var shareLayers = []string{"network", "des", "eventq", "flit", "arb", "adapter", "updown", "vcroute", "runtime"}

// foldProfile returns the CPU nanoseconds of a gzipped pprof profile,
// attributed to the package of each sample's leaf frame and bucketed by
// layerOf.
func foldProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples  []sample
		leafFunc = map[uint64]uint64{} // location id -> leaf function id
		funcName = map[uint64]int64{}  // function id -> string index
		strs     []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			seenLine := false
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !seenLine: // first Line is the innermost inlined frame
					seenLine = true
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			leafFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := map[string]int64{}
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		name := ""
		if idx, ok := funcName[leafFunc[s.locs[0]]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		// Go CPU profiles carry [samples/count, cpu/nanoseconds].
		out[layerOf(pkgOf(name))] += int64(s.values[len(s.values)-1])
	}
	return out, nil
}

// pkgOf returns the import path of a symbol name as pprof prints it, e.g.
// "wormlan/internal/network" for "wormlan/internal/network.(*Fabric).Tick".
func pkgOf(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 { // generic instantiation
		sym = sym[:i]
	}
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// layerOf buckets an import path into one of shareLayers or "other".
func layerOf(pkg string) string {
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(pkg, "wormlan/internal/"); ok {
		name, _, _ := strings.Cut(rest, "/")
		for _, l := range shareLayers {
			if l == name {
				return l
			}
		}
	}
	return "other"
}

// eachField walks a protobuf message, calling f with each field's number
// and either its varint value or its length-delimited bytes.  Fixed-width
// fields are skipped.
func eachField(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errors.New("truncated fixed field")
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (one
// value) or packed (a run of varints).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
