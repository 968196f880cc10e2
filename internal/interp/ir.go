package interp

import (
	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/types"
)

// This file defines the compiled (lowered) form of a program: the result
// of the one-time compile pass in compile.go, the only way a program
// executes. Committed golden digests pin its output and cycle statistics
// (see internal/golden).

// Engine once selected between the compiled engine and the retired
// tree-walk reference. It has no values or readers left.
//
// Deprecated: the compiled engine is the only engine; the type remains
// only for option fields kept for source compatibility.
type Engine int

// evalFn is a lowered expression: evaluate to an rvalue.
type evalFn func(p *Proc) (Value, error)

// lvalFn is a lowered lvalue: resolve to (address, stored type).
type lvalFn func(p *Proc) (uint32, *types.Type, error)

// execFn is a lowered statement.
type execFn func(p *Proc, ret *Value) (ctrl, error)

// slotDef is one frame slot of a function's layout, in allocation order
// (parameters first, then every local declaration in source order).
type slotDef struct {
	sym   *ast.Symbol
	size  uint32
	amask uint32 // alignment - 1
}

// compiledFunc is the resolved form of one *ast.FuncDecl, cached on the
// Program at load time.
type compiledFunc struct {
	decl *ast.FuncDecl
	name string

	// slots is the frame layout; slot i's address is computed at frame
	// push (a subtract and mask per slot) into the Proc's slot arena.
	slots []slotDef
	// paramSlot maps parameter index -> slot index (-1: unnamed param).
	paramSlot  []int
	paramType  []*types.Type
	paramStore []typedStore

	body execFn
}

// cframe is one activation record. Slot addresses live in
// the Proc's slotMem arena at [base, base+n); saved restores the stack
// pointer on pop.
type cframe struct {
	base  int
	saved uint32
}

// Per-operation compute costs in core cycles, P54C-flavoured: the Pentium
// is in-order with a slow divider and blocking loads. The same table
// applies to baseline and translated runs, so runtime ratios are driven
// by parallel structure and the memory system.
const (
	costALU    = 1  // integer add/sub/logic/compare, branches
	costIMul   = 9  // integer multiply
	costIDiv   = 41 // integer divide / modulo
	costFAdd   = 3  // FP add/sub/compare
	costFMul   = 3  // FP multiply
	costFDiv   = 39 // FP divide
	costConv   = 3  // int<->float conversion
	costCall   = 5  // call + frame setup
	costReturn = 3
)

// ctrl is statement-level control flow.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)
