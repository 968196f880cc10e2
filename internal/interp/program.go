package interp

import (
	"fmt"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/parser"
	"hsmcc/internal/cc/sema"
	"hsmcc/internal/cc/types"
	"hsmcc/internal/sccsim"
)

// Program is a loadable executable image: the checked AST plus the layout
// of its globals and string literals in the private address space. The
// same Program instantiates once per execution context (each SCC process
// gets its own private copy; baseline threads share their parent's copy).
//
// A Program is IMMUTABLE once Load returns: the layout maps, the function
// tables and every compiled closure are built eagerly and only read
// afterwards. That immutability is a load-bearing contract — one compiled
// Program is shared by any number of concurrent Sims (the grid runner and
// the conformance oracle compile once per workload and fan matrix cells
// out across host cores), so nothing reached from a Program may be
// written during execution. TestProgramSharedAcrossSims pins this under
// the race detector.
type Program struct {
	File  *ast.File
	Info  *sema.Info
	Funcs map[string]*ast.FuncDecl

	// globalAddrs assigns each file-scope variable symbol its address in
	// the private globals segment.
	globalAddrs map[*ast.Symbol]uint32
	// stringAddrs assigns each string literal an address (NUL-terminated
	// bytes in the globals segment).
	stringAddrs map[*ast.StringLit]uint32
	// ImageEnd is the first free private address after globals+strings;
	// the heap starts here.
	ImageEnd uint32

	// funcList gives every defined function a small integer so function
	// values (e.g. pthread_create's third argument) fit in a Value; index
	// i is encoded as i+1 so that 0 stays a null function pointer.
	funcList []*ast.FuncDecl

	// compiled caches the lowered form of every function (compile.go),
	// built once at Load time; compiledList parallels funcList so
	// function values decode to their compiled form without a map lookup.
	compiled     map[*ast.FuncDecl]*compiledFunc
	compiledList []*compiledFunc
}

// FuncValue returns the value encoding of a defined function.
func (pr *Program) FuncValue(fn *ast.FuncDecl) Value {
	for i, f := range pr.funcList {
		if f == fn {
			return Value{T: types.PointerTo(types.VoidType), I: int64(i + 1)}
		}
	}
	return Value{T: types.PointerTo(types.VoidType)}
}

// FuncByValue decodes a function value back to its declaration.
func (pr *Program) FuncByValue(v Value) *ast.FuncDecl {
	i := int(v.Int()) - 1
	if i < 0 || i >= len(pr.funcList) {
		return nil
	}
	return pr.funcList[i]
}

// compiledByValue decodes a function value to its compiled form.
func (pr *Program) compiledByValue(v Value) *compiledFunc {
	i := int(v.Int()) - 1
	if i < 0 || i >= len(pr.compiledList) {
		return nil
	}
	return pr.compiledList[i]
}

// GlobalsBase is where the globals segment starts in private memory.
const GlobalsBase = sccsim.PrivateBase

// Load lays out a checked file into a Program and compiles every
// function. A tree the compiler cannot lower fails with a positioned
// error naming the function.
func Load(file *ast.File, info *sema.Info) (*Program, error) {
	pr := &Program{
		File:        file,
		Info:        info,
		Funcs:       make(map[string]*ast.FuncDecl),
		globalAddrs: make(map[*ast.Symbol]uint32),
		stringAddrs: make(map[*ast.StringLit]uint32),
	}
	for _, fn := range file.Funcs() {
		pr.Funcs[fn.Name] = fn
		pr.funcList = append(pr.funcList, fn)
	}
	cursor := GlobalsBase
	align := func(n uint32, a int) uint32 {
		if a <= 1 {
			return n
		}
		ua := uint32(a)
		return (n + ua - 1) / ua * ua
	}
	for _, d := range file.Globals() {
		if d.Sym == nil {
			return nil, fmt.Errorf("interp: global %s has no symbol (sema not run?)", d.Name)
		}
		size := d.Type.Size()
		if size <= 0 {
			size = 4
		}
		cursor = align(cursor, d.Type.Align())
		pr.globalAddrs[d.Sym] = cursor
		cursor += uint32(size)
	}
	// String literals live after the globals, NUL-terminated.
	ast.Inspect(file, func(n ast.Node) bool {
		if s, ok := n.(*ast.StringLit); ok {
			if _, seen := pr.stringAddrs[s]; !seen {
				pr.stringAddrs[s] = cursor
				cursor += uint32(len(s.Value)) + 1
			}
		}
		return true
	})
	pr.ImageEnd = align(cursor, 8)
	if err := compileProgram(pr); err != nil {
		return nil, err
	}
	return pr, nil
}

// Compile parses, checks and loads C source in one step.
func Compile(name, src string) (*Program, error) {
	file, err := parser.Parse(name, src)
	if err != nil {
		return nil, err
	}
	info, err := sema.Analyze(file)
	if err != nil {
		return nil, err
	}
	return Load(file, info)
}

// GlobalAddr returns the private address of a global symbol.
func (pr *Program) GlobalAddr(sym *ast.Symbol) (uint32, bool) {
	a, ok := pr.globalAddrs[sym]
	return a, ok
}

// instantiate writes the image (global initialisers and string bytes)
// into core's private memory on machine m. Globals without initialisers
// stay zero (PageMem zero-fills).
func (pr *Program) instantiate(m *sccsim.Machine, core int) error {
	for _, d := range pr.File.Globals() {
		addr := pr.globalAddrs[d.Sym]
		if d.Init != nil {
			v, err := constValue(d.Init, d.Type)
			if err != nil {
				return fmt.Errorf("interp: global %s: %w", d.Name, err)
			}
			if err := storeRaw(m, core, addr, d.Type, v); err != nil {
				return err
			}
		}
		for i, e := range d.InitLst {
			elem := d.Type.Elem
			if elem == nil {
				return fmt.Errorf("interp: aggregate initialiser on scalar %s", d.Name)
			}
			v, err := constValue(e, elem)
			if err != nil {
				return fmt.Errorf("interp: global %s[%d]: %w", d.Name, i, err)
			}
			if err := storeRaw(m, core, addr+uint32(i*elem.Size()), elem, v); err != nil {
				return err
			}
		}
	}
	for s, addr := range pr.stringAddrs {
		b := append([]byte(s.Value), 0)
		m.WriteBytes(core, addr, b)
	}
	return nil
}

// storeRaw writes a constant without charging simulated time (loader).
func storeRaw(m *sccsim.Machine, core int, addr uint32, t *types.Type, v Value) error {
	buf := make([]byte, t.Size())
	if err := encodeValue(t, Convert(v, t), buf); err != nil {
		return err
	}
	m.WriteBytes(core, addr, buf)
	return nil
}

// constValue folds the constant expressions allowed in global
// initialisers (literals, negation, simple arithmetic).
func constValue(e ast.Expr, want *types.Type) (Value, error) {
	switch n := ast.Unparen(e).(type) {
	case *ast.IntLit:
		return IntValue(types.IntType, n.Value), nil
	case *ast.FloatLit:
		return FloatValue(types.DoubleType, n.Value), nil
	case *ast.CharLit:
		return IntValue(types.CharType, int64(n.Value)), nil
	case *ast.UnaryExpr:
		v, err := constValue(n.X, want)
		if err != nil {
			return Value{}, err
		}
		switch n.Op.String() {
		case "-":
			if v.IsFloat() {
				return FloatValue(v.T, -v.F), nil
			}
			return IntValue(v.T, -v.I), nil
		case "+":
			return v, nil
		}
		return Value{}, fmt.Errorf("non-constant unary initialiser")
	case *ast.BinaryExpr:
		x, err := constValue(n.X, want)
		if err != nil {
			return Value{}, err
		}
		y, err := constValue(n.Y, want)
		if err != nil {
			return Value{}, err
		}
		return foldBinary(n.Op, x, y, nil)
	case *ast.CastExpr:
		v, err := constValue(n.X, n.To)
		if err != nil {
			return Value{}, err
		}
		return Convert(v, n.To), nil
	default:
		return Value{}, fmt.Errorf("non-constant initialiser %T", e)
	}
}
