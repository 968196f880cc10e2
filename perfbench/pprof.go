package main

// A minimal reader for the CPU profiles runtime/pprof writes (gzipped
// profile.proto), enough to attribute samples by package: the standard
// library writes the format but ships no reader.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

var errTruncated = errors.New("truncated protobuf")

// protoField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type protoField struct {
	num   int
	value uint64
	data  []byte
}

// protoFields splits one protobuf message into its fields.
func protoFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := protoField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			f.value, n = uvarint(b)
			if n == 0 {
				return nil, errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("unsupported wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
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

// ints reads a repeated integer field, packed or not.
func ints(f protoField) []uint64 {
	if f.data == nil {
		return []uint64{f.value}
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n := uvarint(b)
		if n == 0 {
			break
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}

// profileSample is one stack (leaf first) with its sample count.
type profileSample struct {
	stack []string
	count int64
}

// readProfile decodes a gzipped CPU profile into function-name stacks.
// Inlined frames are expanded, innermost first.
func readProfile(gz []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	top, err := protoFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{}   // function id -> string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	var samples [][]protoField
	for _, f := range top {
		switch f.num {
		case 2: // sample
			fs, err := protoFields(f.data)
			if err != nil {
				return nil, err
			}
			samples = append(samples, fs)
		case 4: // location
			fs, err := protoFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.value
				case 4: // line
					ls, err := protoFields(lf.data)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.value)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			fs, err := protoFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.value
				case 2:
					name = ff.value
				}
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(f.data))
		}
	}
	out := make([]profileSample, 0, len(samples))
	for _, fs := range samples {
		var s profileSample
		for _, f := range fs {
			switch f.num {
			case 1:
				for _, loc := range ints(f) {
					for _, fn := range locFuncs[loc] {
						if i := funcName[fn]; i < uint64(len(strs)) {
							s.stack = append(s.stack, strs[i])
						}
					}
				}
			case 2:
				if vs := ints(f); len(vs) > 0 && s.count == 0 {
					s.count = int64(vs[0])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// funcPackage is the import path of a symbol such as
// "hsmcc/internal/interp.(*Sim).step".
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	if dot := strings.Index(name[slash+1:], "."); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// isGC reports whether a frame belongs to the garbage collector.
func isGC(name string) bool {
	return strings.HasPrefix(name, "runtime.gc") || name == "runtime.bgsweep" || name == "runtime.bgscavenge"
}

// cpuShares attributes flat samples (the leaf frame) to interp, sccsim
// and the C front end by package, and samples whose stack passes
// through the collector to GC.
func cpuShares(gz []byte) (map[string]float64, error) {
	samples, err := readProfile(gz)
	if err != nil {
		return nil, err
	}
	var total, interp, sccsim, cc, gc int64
	for _, s := range samples {
		total += s.count
		if len(s.stack) == 0 {
			continue
		}
		switch pkg := funcPackage(s.stack[0]); {
		case pkg == "hsmcc/internal/interp":
			interp += s.count
		case pkg == "hsmcc/internal/sccsim":
			sccsim += s.count
		case strings.HasPrefix(pkg, "hsmcc/internal/cc/"):
			cc += s.count
		}
		for _, fn := range s.stack {
			if isGC(fn) {
				gc += s.count
				break
			}
		}
	}
	share := func(n int64) float64 { return ratio(float64(n), float64(total)) }
	return map[string]float64{
		"cpu.interp_share": share(interp),
		"cpu.sccsim_share": share(sccsim),
		"cpu.cc_share":     share(cc),
		"cpu.gc_share":     share(gc),
	}, nil
}
