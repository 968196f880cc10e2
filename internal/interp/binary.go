package interp

import (
	"fmt"

	"hsmcc/internal/cc/token"
	"hsmcc/internal/cc/types"
)

// binCost is the cycle charge for one binary operation, as a pure table
// so applyBinary has a single charge site (which is what makes it
// resumable with one frame).
func binCost(op token.Kind, float bool) int {
	switch op {
	case token.Star:
		if float {
			return costFMul
		}
		return costIMul
	case token.Slash, token.Percent:
		if float {
			return costFDiv
		}
		return costIDiv
	default:
		if float {
			return costFAdd
		}
		return costALU
	}
}

// applyResume finishes a suspended binary apply: the charge completed
// and the pure outcome (value or fold error) was saved in the frame, so
// re-entry returns it without consulting the operands (a caller may
// pass zero operands on re-entry).
func (p *Proc) applyResume() (Value, error) {
	fr := p.popKRef()
	if e, ok := fr.x.(error); ok {
		return Value{}, e
	}
	return fr.v, nil
}

// pushApplyOutcome saves a suspended apply's pure outcome.
func (p *Proc) pushApplyOutcome(v Value, err error) {
	if err != nil {
		p.pushK(kframe{x: err})
	} else {
		p.pushK(kframe{v: v})
	}
}

// applyBinary computes x op y, charging the operation cost: one ALU
// cycle for pointer arithmetic, binCost otherwise. The single charge
// site is what makes it resumable: the computation after the charge is
// pure over the operands, so the yield path computes the outcome
// eagerly and saves it in the frame, and re-entry (with any operands)
// just returns it.
func (p *Proc) applyBinary(op token.Kind, x, y Value, rt *types.Type) (Value, error) {
	if p.coResuming {
		return p.applyResume()
	}
	if xt := x.T; xt != nil && xt.IsPointerLike() && (op == token.Plus || op == token.Minus) {
		if err := p.chargeCycles(costALU); err != nil {
			p.pushApplyOutcome(pointerArith(op, x, y), nil)
			return Value{}, err
		}
		return pointerArith(op, x, y), nil
	}
	if err := p.chargeCycles(binCost(op, x.IsFloat() || y.IsFloat())); err != nil {
		p.pushApplyOutcome(foldBinary(op, x, y, rt))
		return Value{}, err
	}
	return foldBinary(op, x, y, rt)
}

// pointerArith computes pointer ± integer (scaling the integer by the
// element size) and pointer − pointer (in elements).
func pointerArith(op token.Kind, x, y Value) Value {
	xt := x.T
	elem := xt.Decay().Elem
	size := int64(4)
	if elem != nil && elem.Size() > 0 {
		size = int64(elem.Size())
	}
	if yt := y.T; yt != nil && yt.IsPointerLike() && op == token.Minus {
		return IntValue(types.IntType, (x.Int()-y.Int())/size)
	}
	delta := y.Int() * size
	if op == token.Minus {
		delta = -delta
	}
	return PtrValue(xt.Decay(), uint32(x.Int()+delta))
}

// foldBinary is the pure arithmetic core of applyBinary and the
// constant folder: C's usual arithmetic on int, unsigned and double
// operands, converted to rt when rt is an arithmetic type.
func foldBinary(op token.Kind, x, y Value, rt *types.Type) (Value, error) {
	if x.IsFloat() || y.IsFloat() {
		a, b := x.Float(), y.Float()
		t := types.DoubleType
		var v Value
		switch op {
		case token.Plus:
			v = Value{T: t, F: a + b}
		case token.Minus:
			v = Value{T: t, F: a - b}
		case token.Star:
			v = Value{T: t, F: a * b}
		case token.Slash:
			v = Value{T: t, F: a / b}
		case token.Lt:
			v = boolValue(a < b)
		case token.Gt:
			v = boolValue(a > b)
		case token.Le:
			v = boolValue(a <= b)
		case token.Ge:
			v = boolValue(a >= b)
		case token.EqEq:
			v = boolValue(a == b)
		case token.NotEq:
			v = boolValue(a != b)
		default:
			return Value{}, fmt.Errorf("float operands for %s", op)
		}
		if rt != nil && rt.IsArithmetic() {
			return Convert(v, rt), nil
		}
		return v, nil
	}
	a, b := x.Int(), y.Int()
	t := types.IntType
	uns := x.T != nil && x.T.Kind == types.UInt
	if uns {
		t = types.UIntType
	}
	wrap := func(v int64) Value {
		if uns {
			return Value{T: t, I: int64(uint32(v))}
		}
		return Value{T: t, I: int64(int32(v))}
	}
	var v Value
	switch op {
	case token.Plus:
		v = wrap(a + b)
	case token.Minus:
		v = wrap(a - b)
	case token.Star:
		v = wrap(a * b)
	case token.Slash:
		if b == 0 {
			return Value{}, fmt.Errorf("integer division by zero")
		}
		v = wrap(a / b)
	case token.Percent:
		if b == 0 {
			return Value{}, fmt.Errorf("integer modulo by zero")
		}
		v = wrap(a % b)
	case token.Amp:
		v = wrap(a & b)
	case token.Pipe:
		v = wrap(a | b)
	case token.Caret:
		v = wrap(a ^ b)
	case token.Shl:
		v = wrap(a << (uint(b) & 31))
	case token.Shr:
		if uns {
			v = wrap(int64(uint32(a) >> (uint(b) & 31)))
		} else {
			v = wrap(int64(int32(a) >> (uint(b) & 31)))
		}
	case token.Lt:
		v = boolValue(a < b)
	case token.Gt:
		v = boolValue(a > b)
	case token.Le:
		v = boolValue(a <= b)
	case token.Ge:
		v = boolValue(a >= b)
	case token.EqEq:
		v = boolValue(a == b)
	case token.NotEq:
		v = boolValue(a != b)
	default:
		return Value{}, fmt.Errorf("binary op %s unsupported", op)
	}
	if rt != nil && rt.IsArithmetic() {
		return Convert(v, rt), nil
	}
	return v, nil
}

func boolValue(b bool) Value {
	if b {
		return Value{T: types.IntType, I: 1}
	}
	return Value{T: types.IntType, I: 0}
}

// stepValue adds delta respecting pointer scaling (++/--).
func (p *Proc) stepValue(v Value, t *types.Type, delta int64) Value {
	if t.Kind == types.Pointer && t.Elem != nil {
		return PtrValue(t, uint32(v.Int()+delta*int64(t.Elem.Size())))
	}
	if v.IsFloat() {
		return FloatValue(t, v.F+float64(delta))
	}
	return IntValue(t, v.I+delta)
}

// compoundOps maps each compound assignment operator to its binary
// operator.
var compoundOps = map[token.Kind]token.Kind{
	token.AddAssign: token.Plus,
	token.SubAssign: token.Minus,
	token.MulAssign: token.Star,
	token.DivAssign: token.Slash,
	token.ModAssign: token.Percent,
	token.AndAssign: token.Amp,
	token.OrAssign:  token.Pipe,
	token.XorAssign: token.Caret,
	token.ShlAssign: token.Shl,
	token.ShrAssign: token.Shr,
}
