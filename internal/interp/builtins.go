package interp

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"hsmcc/internal/cc/types"
)

// isKnownBuiltin reports whether a callee name resolves to a builtin
// (common libc subset or a runtime family) rather than a function
// pointer variable.
func isKnownBuiltin(name string) bool {
	return commonBuiltinID(name) != bNone ||
		strings.HasPrefix(name, "pthread_") || strings.HasPrefix(name, "RCCE_")
}

// builtinID is an interned common-builtin identity; the compiler
// resolves call sites to IDs once so the hot path dispatches on a small
// integer instead of comparing strings.
type builtinID int

// Interned common builtins (bNone means "not a common builtin").
const (
	bNone builtinID = iota
	bPrintf
	bMalloc
	bCalloc
	bFree
	bMemset
	bMemcpy
	bExit
	bAtoi
	bSqrt
	bFabs
	bWallclock
)

// commonBuiltinID interns a callee name.
func commonBuiltinID(name string) builtinID {
	switch name {
	case "printf":
		return bPrintf
	case "malloc", "RCCE_malloc_request":
		return bMalloc
	case "calloc":
		return bCalloc
	case "free":
		return bFree
	case "memset":
		return bMemset
	case "memcpy":
		return bMemcpy
	case "exit", "abort":
		return bExit
	case "atoi":
		return bAtoi
	case "sqrt":
		return bSqrt
	case "fabs":
		return bFabs
	case "wallclock":
		return bWallclock
	}
	return bNone
}

// commonBuiltinByID dispatches an interned common builtin. Every builtin
// follows the coroutine resumption protocol: all side effects that must
// not repeat (output formatting, heap allocation, machine accesses)
// happen before the single trailing charge, and a frame carries whatever
// the post-charge epilogue needs (the formatted text, the allocated
// address, the computed result).
func (p *Proc) commonBuiltinByID(id builtinID, args []Value) (Value, bool, error) {
	var fr kframe
	if p.coResuming {
		fr = p.popK()
	}
	switch id {
	case bPrintf:
		var out string
		if fr.step == 0 {
			if len(args) == 0 {
				return Value{}, true, fmt.Errorf("printf without format")
			}
			format := p.ReadCString(args[0].Addr())
			var err error
			out, err = p.formatC(format, args[1:])
			if err != nil {
				return Value{}, true, err
			}
			if err := p.chargeCycles(costCall + len(out)); err != nil { // I/O cost proportional to text
				p.pushK(kframe{step: 1, x: out})
				return Value{}, true, err
			}
		} else {
			out = fr.x.(string)
		}
		p.Sim.Out.WriteString(out)
		return IntValue(types.IntType, int64(len(out))), true, nil

	case bMalloc: // private heap (also RCCE_malloc_request)
		addr := fr.a
		if fr.step == 0 {
			addr = p.heapAlloc(int(args[0].Int()))
			if err := p.chargeCycles(costCall * 4); err != nil {
				p.pushK(kframe{step: 1, a: addr})
				return Value{}, true, err
			}
		}
		return PtrValue(types.PointerTo(types.VoidType), addr), true, nil

	case bCalloc:
		addr := fr.a
		if fr.step == 0 {
			n := int(args[0].Int() * args[1].Int())
			addr = p.heapAlloc(n)
			// PageMem zero-fills fresh pages; the bump allocator never
			// reuses, so the region is already zero.
			if err := p.chargeCycles(costCall*4 + n/8); err != nil {
				p.pushK(kframe{step: 1, a: addr})
				return Value{}, true, err
			}
		}
		return PtrValue(types.PointerTo(types.VoidType), addr), true, nil

	case bFree:
		if fr.step == 0 {
			if err := p.chargeCycles(costCall); err != nil {
				p.pushK(kframe{step: 1})
				return Value{}, true, err
			}
		}
		return Value{T: types.VoidType}, true, nil

	case bMemset:
		if fr.step == 0 {
			addr, val, n := args[0].Addr(), byte(args[1].Int()), int(args[2].Int())
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = val
			}
			p.Clock += p.Sim.Machine.Store(p.Core, addr, buf, p.Clock)
			// One timed machine access, one profiler report (mirrors
			// the Machine's own per-call accounting); the store has
			// completed, so a yield below never re-issues it.
			if p.prof != nil {
				p.prof.NoteAccess(p.Core, addr, true)
			}
			if err := p.chargeCycles(n / 4); err != nil {
				p.pushK(kframe{step: 1})
				return Value{}, true, err
			}
		}
		return args[0], true, nil

	case bMemcpy:
		if fr.step == 0 {
			dst, src, n := args[0].Addr(), args[1].Addr(), int(args[2].Int())
			buf := make([]byte, n)
			p.Clock += p.Sim.Machine.Load(p.Core, src, buf, p.Clock)
			p.Clock += p.Sim.Machine.Store(p.Core, dst, buf, p.Clock)
			if p.prof != nil {
				p.prof.NoteAccess(p.Core, src, false)
				p.prof.NoteAccess(p.Core, dst, true)
			}
			if err := p.chargeCycles(n / 4); err != nil {
				p.pushK(kframe{step: 1})
				return Value{}, true, err
			}
		}
		return args[0], true, nil

	case bExit:
		return Value{}, true, errThreadExit

	case bAtoi:
		v := fr.n
		if fr.step == 0 {
			s := p.ReadCString(args[0].Addr())
			iv, _ := strconv.Atoi(strings.TrimSpace(s))
			v = int64(iv)
			if err := p.chargeCycles(costCall + 4*len(s)); err != nil {
				p.pushK(kframe{step: 1, n: v})
				return Value{}, true, err
			}
		}
		return IntValue(types.IntType, v), true, nil

	case bSqrt:
		if fr.step == 0 {
			if err := p.chargeCycles(70); err != nil { // P54C FSQRT
				p.pushK(kframe{step: 1})
				return Value{}, true, err
			}
		}
		return FloatValue(types.DoubleType, math.Sqrt(args[0].Float())), true, nil

	case bFabs:
		if fr.step == 0 {
			if err := p.chargeCycles(costFAdd); err != nil {
				p.pushK(kframe{step: 1})
				return Value{}, true, err
			}
		}
		return FloatValue(types.DoubleType, math.Abs(args[0].Float())), true, nil

	case bWallclock:
		if fr.step == 0 {
			if err := p.chargeCycles(costCall); err != nil {
				p.pushK(kframe{step: 1})
				return Value{}, true, err
			}
		}
		return FloatValue(types.DoubleType, p.Seconds()), true, nil
	}
	return Value{}, false, nil
}

// formatC renders a C printf format with the given arguments.
func (p *Proc) formatC(format string, args []Value) (string, error) {
	var sb strings.Builder
	ai := 0
	next := func() (Value, error) {
		if ai >= len(args) {
			return Value{}, fmt.Errorf("printf: missing argument %d for %q", ai, format)
		}
		v := args[ai]
		ai++
		return v, nil
	}
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' {
			sb.WriteByte(c)
			continue
		}
		// Collect the spec: flags, width, precision, length modifiers.
		j := i + 1
		for j < len(format) && strings.ContainsRune("-+ #0123456789.", rune(format[j])) {
			j++
		}
		for j < len(format) && (format[j] == 'l' || format[j] == 'h') {
			j++
		}
		if j >= len(format) {
			sb.WriteByte('%')
			break
		}
		spec := strings.Map(func(r rune) rune {
			if r == 'l' || r == 'h' {
				return -1
			}
			return r
		}, format[i+1:j])
		verb := format[j]
		i = j
		switch verb {
		case '%':
			sb.WriteByte('%')
		case 'd', 'i':
			v, err := next()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "%"+spec+"d", v.Int())
		case 'u':
			v, err := next()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "%"+spec+"d", uint32(v.Int()))
		case 'x', 'X', 'o':
			v, err := next()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "%"+spec+string(verb), uint32(v.Int()))
		case 'c':
			v, err := next()
			if err != nil {
				return "", err
			}
			sb.WriteByte(byte(v.Int()))
		case 'f', 'F', 'e', 'E', 'g', 'G':
			v, err := next()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "%"+spec+string(verb), v.Float())
		case 's':
			v, err := next()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "%"+spec+"s", p.ReadCString(v.Addr()))
		case 'p':
			v, err := next()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "0x%x", uint32(v.Int()))
		default:
			return "", fmt.Errorf("printf: unsupported verb %%%c", verb)
		}
	}
	return sb.String(), nil
}
