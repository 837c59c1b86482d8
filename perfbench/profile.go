package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// sample is one CPU-profile sample: its call stack as function names,
// innermost first (inlined frames included), and the CPU time it
// stands for in seconds.
type sample struct {
	stack   []string
	seconds float64
}

// decodeCPUProfile decodes a runtime/pprof CPU profile (gzipped
// profile.proto) into samples. Only the fields attribution needs are
// read: sample types, samples, locations, functions and the string
// table; everything else is skipped.
func decodeCPUProfile(data []byte) ([]sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		typeNames []int64 // string-table index of each sample type
		raws      []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string-table index
		strs      []string
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 1 && wire == 2: // sample_type
			var typ int64
			err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				if n == 1 && w == 0 {
					typ = int64(v)
				}
				return nil
			})
			typeNames = append(typeNames, typ)
			return err
		case num == 2 && wire == 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendUints(&s.locs, w, v, b)
				case 2:
					var us []uint64
					if err := appendUints(&us, w, v, b); err != nil {
						return err
					}
					for _, u := range us {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case num == 4 && wire == 2: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 4 && w == 2: // line
					return eachField(b, func(n, w int, v uint64, _ []byte) error {
						if n == 1 && w == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case num == 5 && wire == 2: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				if w == 0 {
					switch n {
					case 1:
						id = v
					case 2:
						name = int64(v)
					}
				}
				return nil
			})
			funcNames[id] = name
			return err
		case num == 6 && wire == 2: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	// The CPU profile's values are (samples/count, cpu/nanoseconds).
	valueIdx := -1
	for i, t := range typeNames {
		if name, err := str(t); err == nil && name == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]sample, 0, len(raws))
	for _, r := range raws {
		if valueIdx >= len(r.values) {
			return nil, errors.New("profile: sample lacks a cpu value")
		}
		s := sample{seconds: float64(r.values[valueIdx]) / 1e9}
		for _, loc := range r.locs {
			fns, ok := locFuncs[loc]
			if !ok {
				return nil, fmt.Errorf("profile: unknown location %d", loc)
			}
			for _, fn := range fns {
				name, err := str(funcNames[fn])
				if err != nil {
					return nil, err
				}
				s.stack = append(s.stack, name)
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type: v holds a varint or fixed value, b a
// length-delimited payload.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(buf); n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: truncated field")
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated uint64 field in either encoding: one
// varint, or a packed run of varints.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, u)
		b = b[n:]
	}
	return nil
}
