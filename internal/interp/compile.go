package interp

import (
	"fmt"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/token"
	"hsmcc/internal/cc/types"
)

// The compile pass lowers each function once, at Load time, into the
// closure form of ir.go. Every chargeCycles call, memory access and error
// message is emitted at run time in a fixed order, so the simulated-time
// statistics are a property of the program alone; only host-side work
// (type switches, map lookups, per-call AST walks) is resolved ahead of
// time. A tree the compiler cannot resolve statically (a nil type or
// symbol, which a sema-checked tree never carries) fails Load with a
// positioned error naming the function.
//
// Every lowered closure additionally follows the coroutine resumption
// protocol of coro.go. Each closure's body is a sequence of units
// separated by suspension sites; the frame it pushes on a yield records
// the unit to continue from plus any locals later units consume. A
// child-yield (the unit's sub-closure suspended and pushed its own
// frame) records the same unit, so re-entry re-calls the child, which
// resumes internally; a leaf-yield (chargeCycles or a typed accessor
// completed its effect and yielded) records the next unit. The two cases
// need no flag: after this closure pops its frame, the resuming bit is
// still set exactly when a deeper frame (the child's) remains.
//
// The resume dispatch is kept OFF the fresh path: closures test the
// resuming bit once, handle non-zero steps in a cold block (small
// resume-tail closures bound at compile time carry any duplicated
// suffix), and fall through to a straight-line fresh body. A step-0
// frame ("inside my first child") also falls through — the child pops
// its own frame and resumes internally.

// compileProgram lowers every function of a loaded program.
func compileProgram(pr *Program) error {
	pr.compiled = make(map[*ast.FuncDecl]*compiledFunc, len(pr.funcList))
	pr.compiledList = make([]*compiledFunc, len(pr.funcList))
	// Two phases: layouts first, so call sites can reference any callee's
	// shell (recursion, forward calls), then bodies.
	for i, fn := range pr.funcList {
		cf := &compiledFunc{decl: fn, name: fn.Name}
		if err := cf.buildLayout(); err != nil {
			return err
		}
		pr.compiled[fn] = cf
		pr.compiledList[i] = cf
	}
	for _, cf := range pr.compiledList {
		if cf.decl.Body == nil {
			continue
		}
		c := &compiler{pr: pr, cf: cf, slotIdx: make(map[*ast.Symbol]int)}
		for i, sd := range cf.slots {
			// Last allocation wins (a symbol declared twice keeps its
			// later slot).
			c.slotIdx[sd.sym] = i
		}
		body := c.compileBlock(cf.decl.Body)
		if c.err != nil {
			return c.err
		}
		cf.body = body
	}
	return nil
}

// buildLayout computes the frame layout: one slot per named parameter,
// then one per local declaration anywhere in the body, in Inspect
// (source) order.
func (cf *compiledFunc) buildLayout() error {
	fn := cf.decl
	var err error
	add := func(pos token.Pos, sym *ast.Symbol, t *types.Type) int {
		if t == nil {
			if err == nil {
				err = fmt.Errorf("interp: %s: in %s: %s has no type", pos, fn.Name, sym.Name)
			}
			return -1
		}
		size := uint32(t.Size())
		if size == 0 {
			size = 4
		}
		a := uint32(t.Align())
		if a == 0 {
			a = 4
		}
		cf.slots = append(cf.slots, slotDef{sym: sym, size: size, amask: a - 1})
		return len(cf.slots) - 1
	}
	cf.paramSlot = make([]int, len(fn.Params))
	cf.paramType = make([]*types.Type, len(fn.Params))
	cf.paramStore = make([]typedStore, len(fn.Params))
	for i, prm := range fn.Params {
		cf.paramSlot[i] = -1
		cf.paramType[i] = prm.Type
		if prm.Sym != nil {
			cf.paramSlot[i] = add(prm.Pos(), prm.Sym, prm.Type)
		}
		if prm.Type != nil {
			cf.paramStore[i] = makeStore(prm.Type)
		}
	}
	if fn.Body == nil {
		return err
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeclStmt); ok && d.Decl.Sym != nil {
			add(d.Pos(), d.Decl.Sym, d.Decl.Type)
		}
		return true
	})
	return err
}

// compiler lowers one function body.
type compiler struct {
	pr      *Program
	cf      *compiledFunc
	slotIdx map[*ast.Symbol]int
	// err is the first tree shape the compiler could not lower; Load
	// reports it and the function is never run.
	err error
}

// fail records a lowering error at pos, naming the function, and returns
// a closure that is never executed (Load fails first).
func (c *compiler) fail(pos token.Pos, format string, args ...any) evalFn {
	if c.err == nil {
		c.err = fmt.Errorf("interp: %s: in %s: %s", pos, c.cf.name, fmt.Sprintf(format, args...))
	}
	return errEval(c.err)
}

func errEval(err error) evalFn {
	return func(p *Proc) (Value, error) { return Value{}, err }
}

// b2i packs a saved boolean into a frame counter field.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// compileBlock lowers a statement list (no per-block statement tick; the
// enclosing BlockStmt node, when there is one, carries its own).
func (c *compiler) compileBlock(b *ast.BlockStmt) execFn {
	list := make([]execFn, len(b.List))
	for i, s := range b.List {
		list[i] = c.compileStmt(s)
	}
	switch len(list) {
	case 0:
		return func(p *Proc, ret *Value) (ctrl, error) { return ctrlNone, nil }
	case 1:
		return list[0]
	}
	return func(p *Proc, ret *Value) (ctrl, error) {
		start := 0
		if p.coResuming {
			// A fused resume index rides the top frame (always this
			// block's own record: outer frames are already popped, and
			// the descendant frame it fused onto is popped only after
			// this block re-enters it). Clearing the piggy bits here —
			// before the carrier's owner ever pops — is what keeps the
			// general pop free of piggy decoding.
			if n := len(p.kstack) - 1; n >= 0 && p.kstack[n].step&kPiggy != 0 {
				start = int(p.kstack[n].step>>kPiggyShift) & kPiggyMax
				p.kstack[n].step &^= kPiggyBits
			} else {
				start = p.popKRef().step
			}
		}
		for i := start; i < len(list); i++ {
			if ct, err := list[i](p, ret); err != nil || ct != ctrlNone {
				if err == errYield {
					// Fuse the resume index into the frame the yielding
					// child just pushed instead of pushing one of our
					// own, when that frame has room (no piggy yet, own
					// step within 13 bits). One 8191-way statement list
					// or an already-claimed carrier falls back to a
					// plain frame.
					if n := len(p.kstack) - 1; n >= 0 && i <= kPiggyMax &&
						p.kstack[n].step&kPiggyBits == 0 {
						p.kstack[n].step |= kPiggy | int32(i)<<kPiggyShift
					} else {
						p.pushK(kframe{step: i})
					}
				}
				return ct, err
			}
		}
		return ctrlNone, nil
	}
}

// tick is the per-statement prologue (op count, runtime preemption
// hook). It must not yield (Runtime.Tick is documented non-yielding), so
// statement combinators run it only on fresh entry.
func (p *Proc) tick() {
	p.Ops++
	if rt := p.Sim.Runtime; rt != nil {
		rt.Tick(p)
	}
}

func (c *compiler) compileStmt(s ast.Stmt) execFn {
	switch n := s.(type) {
	// BlockStmt and ExprStmt are TRANSPARENT combinators: single-child
	// pass-throughs whose resume unconditionally re-enters the child and
	// restores no locals. They push no frame — on a re-descent the
	// resuming bit alone routes them straight into the child (skipping
	// the tick, which already ran on fresh entry) — so every suspension
	// that crosses them saves a frame both ways.
	case *ast.BlockStmt:
		inner := c.compileBlock(n)
		return func(p *Proc, ret *Value) (ctrl, error) {
			if !p.coResuming {
				p.tick()
			}
			return inner(p, ret)
		}

	case *ast.DeclStmt:
		return c.compileDecl(n)

	case *ast.ExprStmt:
		x := c.compileExpr(n.X)
		return func(p *Proc, ret *Value) (ctrl, error) {
			if !p.coResuming {
				p.tick()
			}
			_, err := x(p)
			return ctrlNone, err
		}

	case *ast.IfStmt:
		cond := c.compileExpr(n.Cond)
		then := c.compileStmt(n.Then)
		var els execFn
		if n.Else != nil {
			els = c.compileStmt(n.Else)
		}
		// Units: 1 condition eval, 2 post-charge branch select (n = the
		// saved condition), 3 inside the taken branch.
		return func(p *Proc, ret *Value) (ctrl, error) {
			step, cb := 0, false
			if p.coResuming {
				fr := p.popKRef()
				step, cb = fr.step, fr.n != 0
			} else {
				p.tick()
			}
			if step <= 1 {
				v, err := cond(p)
				if err != nil {
					if err == errYield {
						p.pushK(kframe{step: 1})
					}
					return ctrlNone, err
				}
				cb = v.Bool()
				if err := p.chargeCycles(costALU); err != nil {
					p.pushK(kframe{step: 2, n: b2i(cb)})
					return ctrlNone, err
				}
			}
			if cb {
				ct, err := then(p, ret)
				if err == errYield {
					p.pushK(kframe{step: 3, n: 1})
				}
				return ct, err
			}
			if els != nil {
				ct, err := els(p, ret)
				if err == errYield {
					p.pushK(kframe{step: 3})
				}
				return ct, err
			}
			return ctrlNone, nil
		}

	case *ast.ForStmt:
		var init execFn
		if n.Init != nil {
			init = c.compileStmt(n.Init)
		}
		var cond evalFn
		if n.Cond != nil {
			cond = c.compileExpr(n.Cond)
		}
		var post evalFn
		if n.Post != nil {
			post = c.compileExpr(n.Post)
		}
		body := c.compileStmt(n.Body)
		// Units per iteration: 2 cond eval, 3 post-charge test (n = the
		// saved condition), 4 body, 5 post expression; unit 1 is the
		// one-time init.
		return func(p *Proc, ret *Value) (ctrl, error) {
			step, cbSaved := 0, false
			if p.coResuming {
				fr := p.popKRef()
				step, cbSaved = fr.step, fr.n != 0
			} else {
				p.tick()
			}
			if step <= 1 {
				if init != nil {
					if _, err := init(p, ret); err != nil {
						if err == errYield {
							p.pushK(kframe{step: 1})
						}
						return ctrlNone, err
					}
				}
				step = 2
			}
			for {
				if step <= 2 {
					if cond != nil {
						v, err := cond(p)
						if err != nil {
							if err == errYield {
								p.pushK(kframe{step: 2})
							}
							return ctrlNone, err
						}
						cb := v.Bool()
						if err := p.chargeCycles(costALU); err != nil {
							p.pushK(kframe{step: 3, n: b2i(cb)})
							return ctrlNone, err
						}
						if !cb {
							break
						}
					}
				} else if step == 3 {
					if !cbSaved {
						break
					}
				}
				if step <= 4 {
					ct, err := body(p, ret)
					if err != nil {
						if err == errYield {
							p.pushK(kframe{step: 4})
						}
						return ctrlNone, err
					}
					if ct == ctrlBreak {
						break
					}
					if ct == ctrlReturn {
						return ct, nil
					}
				}
				if post != nil {
					if _, err := post(p); err != nil {
						if err == errYield {
							p.pushK(kframe{step: 5})
						}
						return ctrlNone, err
					}
				}
				step = 2
			}
			return ctrlNone, nil
		}

	case *ast.WhileStmt:
		cond := c.compileExpr(n.Cond)
		body := c.compileStmt(n.Body)
		// Units per iteration: 1 cond eval, 2 post-charge test, 3 body.
		return func(p *Proc, ret *Value) (ctrl, error) {
			step, cbSaved := 0, false
			if p.coResuming {
				fr := p.popKRef()
				step, cbSaved = fr.step, fr.n != 0
			} else {
				p.tick()
			}
			for {
				if step <= 1 {
					v, err := cond(p)
					if err != nil {
						if err == errYield {
							p.pushK(kframe{step: 1})
						}
						return ctrlNone, err
					}
					cb := v.Bool()
					if err := p.chargeCycles(costALU); err != nil {
						p.pushK(kframe{step: 2, n: b2i(cb)})
						return ctrlNone, err
					}
					if !cb {
						return ctrlNone, nil
					}
				} else if step == 2 {
					if !cbSaved {
						return ctrlNone, nil
					}
				}
				ct, err := body(p, ret)
				if err != nil {
					if err == errYield {
						p.pushK(kframe{step: 3})
					}
					return ctrlNone, err
				}
				if ct == ctrlBreak {
					return ctrlNone, nil
				}
				if ct == ctrlReturn {
					return ct, nil
				}
				step = 1
			}
		}

	case *ast.DoWhileStmt:
		body := c.compileStmt(n.Body)
		cond := c.compileExpr(n.Cond)
		// Units per iteration: 1 body, 2 cond eval, 3 post-charge test.
		return func(p *Proc, ret *Value) (ctrl, error) {
			step, cbSaved := 0, false
			if p.coResuming {
				fr := p.popKRef()
				step, cbSaved = fr.step, fr.n != 0
			} else {
				p.tick()
			}
			for {
				if step <= 1 {
					ct, err := body(p, ret)
					if err != nil {
						if err == errYield {
							p.pushK(kframe{step: 1})
						}
						return ctrlNone, err
					}
					if ct == ctrlBreak {
						return ctrlNone, nil
					}
					if ct == ctrlReturn {
						return ct, nil
					}
				}
				if step <= 2 {
					v, err := cond(p)
					if err != nil {
						if err == errYield {
							p.pushK(kframe{step: 2})
						}
						return ctrlNone, err
					}
					cb := v.Bool()
					if err := p.chargeCycles(costALU); err != nil {
						p.pushK(kframe{step: 3, n: b2i(cb)})
						return ctrlNone, err
					}
					if !cb {
						return ctrlNone, nil
					}
				} else if step == 3 {
					if !cbSaved {
						return ctrlNone, nil
					}
				}
				step = 1
			}
		}

	case *ast.SwitchStmt:
		tag := c.compileExpr(n.Tag)
		type ccase struct {
			value evalFn // nil => default
			body  []execFn
		}
		cases := make([]ccase, len(n.Cases))
		for i, cl := range n.Cases {
			if cl.Value != nil {
				cases[i].value = c.compileExpr(cl.Value)
			}
			cases[i].body = make([]execFn, len(cl.Body))
			for j, cs := range cl.Body {
				cases[i].body[j] = c.compileStmt(cs)
			}
		}
		// Units: 1 tag eval, 2 post-charge dispatch (n = tag), 3 case-
		// value eval (a = case index), 4 case-body stmt (a = case,
		// n = stmt index — the tag is dead once a body runs, and
		// matched stays true from there on).
		return func(p *Proc, ret *Value) (ctrl, error) {
			var tagI int64
			step, startCase, startStmt := 0, 0, 0
			matched := false
			if p.coResuming {
				fr := p.popKRef()
				step, tagI = fr.step, fr.n
				switch step {
				case 3:
					startCase = int(fr.a)
				case 4:
					startCase = int(fr.a)
					startStmt = int(fr.n)
					matched = true
				}
			} else {
				p.tick()
			}
			if step <= 1 {
				tv, err := tag(p)
				if err != nil {
					if err == errYield {
						p.pushK(kframe{step: 1})
					}
					return ctrlNone, err
				}
				tagI = tv.Int()
				if err := p.chargeCycles(costALU); err != nil {
					p.pushK(kframe{step: 2, n: tagI})
					return ctrlNone, err
				}
			}
			for i := startCase; i < len(cases); i++ {
				cl := &cases[i]
				if !matched {
					if cl.value == nil {
						matched = true
					} else {
						cv, err := cl.value(p)
						if err != nil {
							if err == errYield {
								p.pushK(kframe{step: 3, n: tagI, a: uint32(i)})
							}
							return ctrlNone, err
						}
						matched = cv.Int() == tagI
					}
				}
				if !matched {
					continue
				}
				for j := startStmt; j < len(cl.body); j++ {
					ct, err := cl.body[j](p, ret)
					if err != nil {
						if err == errYield {
							p.pushK(kframe{step: 4, a: uint32(i), n: int64(j)})
						}
						return ctrlNone, err
					}
					switch ct {
					case ctrlBreak:
						return ctrlNone, nil
					case ctrlReturn, ctrlContinue:
						return ct, nil
					}
				}
				startStmt = 0
			}
			return ctrlNone, nil
		}

	case *ast.ReturnStmt:
		if n.Result == nil {
			return func(p *Proc, ret *Value) (ctrl, error) {
				p.tick()
				return ctrlReturn, nil
			}
		}
		res := c.compileExpr(n.Result)
		// Transparent: resume re-enters the result expression; nothing
		// happens between its completion and the return.
		return func(p *Proc, ret *Value) (ctrl, error) {
			if !p.coResuming {
				p.tick()
			}
			v, err := res(p)
			if err != nil {
				return ctrlNone, err
			}
			*ret = v
			return ctrlReturn, nil
		}

	case *ast.BreakStmt:
		return func(p *Proc, ret *Value) (ctrl, error) {
			p.tick()
			return ctrlBreak, nil
		}
	case *ast.ContinueStmt:
		return func(p *Proc, ret *Value) (ctrl, error) {
			p.tick()
			return ctrlContinue, nil
		}
	case *ast.EmptyStmt:
		return func(p *Proc, ret *Value) (ctrl, error) {
			p.tick()
			return ctrlNone, nil
		}

	default:
		err := fmt.Errorf("%s: cannot execute %T", s.Pos(), s)
		return func(p *Proc, ret *Value) (ctrl, error) {
			p.tick()
			return ctrlNone, err
		}
	}
}

// compileDecl lowers a local declaration: the slot address comes from the
// frame arena, initialisers store with full memory timing, and array
// initialiser lists zero-fill the remainder.
// Units: 1 init eval, 2 init store done, 3 list element (n = index; a
// leaf-yield at the element store records the next index), 5 zero-fill
// element (n = next index). Slot addresses are resolved per unit — never
// at entry — because cfp still points at the innermost frame while a
// resume is descending.
func (c *compiler) compileDecl(n *ast.DeclStmt) execFn {
	d := n.Decl
	if d.Sym == nil {
		return func(p *Proc, ret *Value) (ctrl, error) {
			p.tick()
			return ctrlNone, nil
		}
	}
	idx, ok := c.slotIdx[d.Sym]
	if !ok || d.Type == nil {
		// A local whose symbol is not in its own function's layout cannot
		// happen for sema-checked trees.
		c.fail(d.Pos(), "local %s has no frame slot", d.Name)
		return nil
	}
	typ := d.Type
	var init evalFn
	if d.Init != nil {
		init = c.compileExpr(d.Init)
	}
	var initLst []evalFn
	var elem *types.Type
	var elemSize uint32
	zeroFrom, zeroTo := 0, 0
	if len(d.InitLst) > 0 {
		elem = d.Type.Elem
		if elem == nil {
			// Aggregate initialiser on a scalar: the error is reported at
			// run time, after the tick and the Init store.
			err := fmt.Errorf("%s: aggregate initialiser on scalar %s", d.Pos(), d.Name)
			return func(p *Proc, ret *Value) (ctrl, error) {
				step := 0
				if p.coResuming {
					step = p.popKRef().step
				} else {
					p.tick()
				}
				if init != nil && step <= 1 { // Init runs first
					v, ierr := init(p)
					if ierr != nil {
						if ierr == errYield {
							p.pushK(kframe{step: 1})
						}
						return ctrlNone, ierr
					}
					if serr := p.storeValue(p.slotAddr(idx), typ, v); serr != nil {
						if serr == errYield {
							p.pushK(kframe{step: 2})
						}
						return ctrlNone, serr
					}
				}
				return ctrlNone, err
			}
		}
		elemSize = uint32(elem.Size())
		initLst = make([]evalFn, len(d.InitLst))
		for i, e := range d.InitLst {
			initLst[i] = c.compileExpr(e)
		}
		if d.Type.Kind == types.Array {
			zeroFrom, zeroTo = len(d.InitLst), d.Type.Len
		}
	}
	sf := makeStore(typ)
	var elemStore typedStore
	if elem != nil {
		elemStore = makeStore(elem)
	}
	return func(p *Proc, ret *Value) (ctrl, error) {
		step := 0
		listFrom, zFrom := 0, zeroFrom
		if p.coResuming {
			fr := p.popKRef()
			step = fr.step
			switch step {
			case 3:
				listFrom = int(fr.n)
			case 5:
				zFrom = int(fr.n)
			}
		} else {
			p.tick()
		}
		if step <= 1 && init != nil {
			v, err := init(p)
			if err != nil {
				if err == errYield {
					p.pushK(kframe{step: 1})
				}
				return ctrlNone, err
			}
			if _, err := sf(p, p.slotAddr(idx), v); err != nil {
				if err == errYield {
					p.pushK(kframe{step: 2})
				}
				return ctrlNone, err
			}
		}
		if step <= 3 {
			for i := listFrom; i < len(initLst); i++ {
				v, err := initLst[i](p)
				if err != nil {
					if err == errYield {
						p.pushK(kframe{step: 3, n: int64(i)})
					}
					return ctrlNone, err
				}
				if _, err := elemStore(p, p.slotAddr(idx)+uint32(i)*elemSize, v); err != nil {
					if err == errYield {
						p.pushK(kframe{step: 3, n: int64(i + 1)})
					}
					return ctrlNone, err
				}
			}
		}
		if zeroTo > zFrom {
			zero := IntValue(types.IntType, 0)
			for i := zFrom; i < zeroTo; i++ {
				if _, err := elemStore(p, p.slotAddr(idx)+uint32(i)*elemSize, zero); err != nil {
					if err == errYield {
						p.pushK(kframe{step: 5, n: int64(i + 1)})
					}
					return ctrlNone, err
				}
			}
		}
		return ctrlNone, nil
	}
}
