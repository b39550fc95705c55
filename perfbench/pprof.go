package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// protocol buffers, profile.proto) far enough to attribute each sample
// to the module of its leaf frame. Only the standard library is
// available, so it decodes the handful of fields it needs by hand.

// protoFields calls fn for each top-level field of a protobuf message.
// Varint and fixed-width values arrive in v, length-delimited ones in b.
func protoFields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("pprof: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("pprof: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("pprof: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repeated collects a repeated integer field that may arrive packed (b
// set) or as one value per field (v).
func repeated(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// leafShares returns, for a gzipped CPU profile, the share of samples
// whose leaf frame (the innermost inlined function of the first
// location) lies in each module, plus the sample count.
func leafShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("pprof: %w", err)
	}

	type sample struct {
		loc   uint64
		count int64
	}
	var (
		strs      []string
		samples   []sample
		funcName  = map[uint64]uint64{} // function id -> string index
		locLeafFn = map[uint64]uint64{} // location id -> leaf function id
	)
	err = protoFields(raw, func(num int, _ uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs, vals []uint64
			err := protoFields(b, func(n int, v uint64, bb []byte) error {
				switch n {
				case 1:
					locs = repeated(locs, v, bb)
				case 2:
					vals = repeated(vals, v, bb)
				}
				return nil
			})
			if err == nil && len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{loc: locs[0], count: int64(vals[0])})
			}
			return err
		case 4: // Location
			var id, leaf uint64
			haveLine := false
			err := protoFields(b, func(n int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					if haveLine {
						return nil // later lines are callers of the leaf
					}
					haveLine = true
					return protoFields(bb, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							leaf = lv
						}
						return nil
					})
				}
				return nil
			})
			locLeafFn[id] = leaf
			return err
		case 5: // Function
			var id, name uint64
			err := protoFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
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
		return nil, 0, err
	}

	shares := map[string]float64{}
	var total int64
	for _, s := range samples {
		name := ""
		if si, ok := funcName[locLeafFn[s.loc]]; ok && int(si) < len(strs) {
			name = strs[si]
		}
		shares[moduleOf(name)] += float64(s.count)
		total += s.count
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= float64(total)
		}
	}
	return shares, total, nil
}

// moduleOf maps a fully qualified function name to its cpu.<module>
// layer: the repository's internal package it belongs to, "runtime" for
// the Go runtime (including its internal packages), or "other".
func moduleOf(fn string) string {
	// Receiver and type-parameter lists may hold slashes of their own.
	head := fn
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	pkg := head
	slash := strings.LastIndex(head, "/")
	if dot := strings.Index(head[slash+1:], "."); dot >= 0 {
		pkg = head[:slash+1+dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "tokencoherence/internal/"); ok {
		name, _, _ := strings.Cut(rest, "/")
		for _, m := range cpuModules {
			if m == name {
				return m
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}
