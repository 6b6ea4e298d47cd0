package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// cpuModules are the modules CPU time is attributed to; every other
// package counts as "other".
var cpuModules = []string{"scads", "partition", "rpc", "cluster", "storage", "memtable", "sstable",
	"wal", "replication", "view", "row", "runtime", "syscall", "other"}

// moduleOf maps a Go symbol ("scads/internal/storage.(*Namespace).Get")
// to its module.
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "scads":
		return "scads"
	case strings.HasPrefix(pkg, "scads/internal/"):
		m := strings.TrimPrefix(pkg, "scads/internal/")
		for _, known := range cpuModules {
			if m == known {
				return m
			}
		}
	case pkg == "syscall" || pkg == "internal/runtime/syscall":
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// flatCPUByModule decodes a gzipped pprof CPU profile and sums the CPU
// nanoseconds of each sample's innermost frame per module.
func flatCPUByModule(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		loc   uint64
		value []int64
	}
	var (
		samples []sample
		locFn   = map[uint64]uint64{} // location id -> innermost function id
		fnName  = map[uint64]int64{}  // function id -> string index
		strs    []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			first := true
			if err := pbFields(b, func(f int, v uint64, pb []byte) error {
				switch f {
				case 1:
					if pb != nil {
						ids, err := pbPacked(pb)
						if err != nil {
							return err
						}
						if first && len(ids) > 0 {
							s.loc, first = ids[0], false
						}
					} else if first {
						s.loc, first = v, false
					}
				case 2:
					if pb != nil {
						vals, err := pbPacked(pb)
						if err != nil {
							return err
						}
						for _, x := range vals {
							s.value = append(s.value, int64(x))
						}
					} else {
						s.value = append(s.value, int64(v))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id, fn uint64
			haveLine := false
			if err := pbFields(b, func(f int, v uint64, pb []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if haveLine {
						return nil
					}
					haveLine = true
					return pbFields(pb, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fn = lv
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFn[id] = fn
		case 5: // function
			var id uint64
			var name int64
			if err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A Go CPU profile has sample types (samples, count) and (cpu,
	// nanoseconds); the second value is the CPU time.
	const cpuValue = 1
	out := map[string]int64{}
	for _, s := range samples {
		if len(s.value) <= cpuValue {
			continue
		}
		name := ""
		if idx, ok := fnName[locFn[s.loc]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		out[moduleOf(name)] += s.value[cpuValue]
	}
	return out, nil
}

var errTruncated = errors.New("pprof: truncated protobuf")

// pbFields walks the fields of a protobuf message, calling fn with the
// field number and either the varint value or the length-delimited
// bytes (nil for varints).
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return errors.New("pprof: unsupported wire type")
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

func pbPacked(b []byte) ([]uint64, error) {
	var out []uint64
	for len(b) > 0 {
		v, n := pbVarint(b)
		if n == 0 {
			return nil, errTruncated
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}
