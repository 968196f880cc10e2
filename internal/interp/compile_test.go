package interp

import (
	"os"
	"regexp"
	"testing"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/parser"
	"hsmcc/internal/cc/sema"
	"hsmcc/internal/sccsim"
)

// layoutPrograms are the sources the frame-layout properties quantify
// over: the repo's example program plus shapes chosen to stress the
// allocator (nested scopes, loops declaring locals, recursion, every
// scalar width, arrays, shadowing).
func layoutPrograms(t *testing.T) map[string]*Program {
	t.Helper()
	srcs := map[string]string{
		"scopes.c": `
int g;
int mix(int a, double b) {
    int x = 1;
    for (int i = 0; i < 3; i++) { int y = i; x += y; }
    while (x < 10) { double z = 0.5; x += (int)(z + b); }
    if (x) { char c = 'a'; short s = 2; x += c + s; }
    return x + a;
}
int rec(int n) { int local = n; if (n <= 0) return 0; return local + rec(n - 1); }
int main() { int arr[4] = {1,2,3}; return mix(arr[0], 1.5) + rec(5); }`,
		"shadow.c": `
int v = 7;
int main() {
    int v = 1;
    { int w = v + 1; v = w; }
    return v;
}`,
	}
	if b, err := os.ReadFile("../../testdata/example41.c"); err == nil {
		srcs["example41.c"] = string(b)
	}
	out := make(map[string]*Program)
	for name, src := range srcs {
		pr, err := Compile(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = pr
	}
	return out
}

// TestFrameLayoutOneSlotPerSymbol: for every function of every program,
// each parameter and local symbol gets exactly one slot, and the slot
// list covers exactly those symbols — the property that makes the dense
// slot array a faithful replacement for the per-call frame map.
func TestFrameLayoutOneSlotPerSymbol(t *testing.T) {
	for name, pr := range layoutPrograms(t) {
		for _, cf := range pr.compiledList {
			seen := map[*ast.Symbol]int{}
			for _, sd := range cf.slots {
				if sd.sym == nil {
					t.Fatalf("%s: %s has a slot with no symbol", name, cf.name)
				}
				seen[sd.sym]++
			}
			for sym, n := range seen {
				if n != 1 {
					t.Errorf("%s: %s: symbol %s has %d slots, want 1", name, cf.name, sym.Name, n)
				}
			}
			// The layout covers the parameters and every declaration in
			// the body.
			want := map[*ast.Symbol]bool{}
			for _, prm := range cf.decl.Params {
				if prm.Sym != nil {
					want[prm.Sym] = true
				}
			}
			if cf.decl.Body != nil {
				ast.Inspect(cf.decl.Body, func(nd ast.Node) bool {
					if d, ok := nd.(*ast.DeclStmt); ok && d.Decl.Sym != nil {
						want[d.Decl.Sym] = true
					}
					return true
				})
			}
			if len(want) != len(seen) {
				t.Errorf("%s: %s: layout has %d symbols, function declares %d", name, cf.name, len(seen), len(want))
			}
			for sym := range want {
				if seen[sym] != 1 {
					t.Errorf("%s: %s: declared symbol %s missing from layout", name, cf.name, sym.Name)
				}
			}
		}
	}
}

// TestFrameSlotsDoNotOverlap pushes frames (including the same function
// recursively) and checks that no two live slots' [addr, addr+size)
// ranges intersect: recursion reuses the layout without aliasing.
func TestFrameSlotsDoNotOverlap(t *testing.T) {
	for name, pr := range layoutPrograms(t) {
		sim := NewSim(sccsim.MustNew(sccsim.DefaultConfig()), pr)
		p := &Proc{Sim: sim, stackTop: sccsim.PrivateLimit, stackPtr: sccsim.PrivateLimit}
		type rng struct {
			lo, hi uint32
			fn     string
		}
		var live []rng
		push := func(cf *compiledFunc) {
			if err := p.pushCFrame(cf); err != nil {
				t.Fatalf("%s: push %s: %v", name, cf.name, err)
			}
			for i, sd := range cf.slots {
				lo := p.slotAddr(i)
				hi := lo + sd.size
				for _, r := range live {
					if lo < r.hi && r.lo < hi {
						t.Fatalf("%s: %s slot [%#x,%#x) overlaps %s slot [%#x,%#x)",
							name, cf.name, lo, hi, r.fn, r.lo, r.hi)
					}
				}
				live = append(live, rng{lo, hi, cf.name})
			}
		}
		// Push every function once, then the first twice more (recursion).
		for _, cf := range pr.compiledList {
			if cf.decl.Body == nil {
				continue
			}
			push(cf)
		}
		for _, cf := range pr.compiledList {
			if cf.decl.Body == nil {
				continue
			}
			push(cf)
			push(cf)
			break
		}
	}
}

// TestRecursionEngineParity runs a recursion-heavy program and pins its
// output, makespan and cycle statistics to the digest the compiled and
// tree-walk engines both produced: recursive frames reuse layouts at
// distinct addresses with unchanged timing.
func TestRecursionEngineParity(t *testing.T) {
	a, err := tryRunMain(`
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int fact(int n) { int acc = 1; if (n > 1) acc = n * fact(n - 1); return acc; }
int main() { printf("%d %d\n", fib(17), fact(10)); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Output() != "1597 3628800\n" {
		t.Fatalf("wrong answer: %q", a.Output())
	}
	verifySim(t, "TestRecursionEngineParity", a)
}

// TestLoadRejectsUnloweredTrees hand-breaks sema-checked trees in the
// two ways a checked tree never is — a cast with no target type and a
// local with no type — and requires Load to fail with an error naming
// the function instead of panicking or producing a runnable Program.
func TestLoadRejectsUnloweredTrees(t *testing.T) {
	const src = `
int helper(int n) { int k = n; return (int)(k + 1); }
int main() { return helper(2); }`
	cases := []struct {
		name   string
		mutate func(n ast.Node) bool
	}{
		{"nil cast type", func(n ast.Node) bool {
			if c, ok := n.(*ast.CastExpr); ok {
				c.To = nil
				return true
			}
			return false
		}},
		{"nil local type", func(n ast.Node) bool {
			if d, ok := n.(*ast.DeclStmt); ok {
				d.Decl.Type = nil
				return true
			}
			return false
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			file, err := parser.Parse("broken.c", src)
			if err != nil {
				t.Fatal(err)
			}
			info, err := sema.Analyze(file)
			if err != nil {
				t.Fatal(err)
			}
			broken := false
			ast.Inspect(file.Funcs()[0].Body, func(n ast.Node) bool {
				if !broken && c.mutate(n) {
					broken = true
				}
				return !broken
			})
			if !broken {
				t.Fatal("no node to break")
			}
			pr, err := Load(file, info)
			if err == nil {
				t.Fatalf("Load accepted the broken tree (program %v)", pr != nil)
			}
			if !regexp.MustCompile(`^interp: \d+:\d+: in helper: `).MatchString(err.Error()) {
				t.Errorf("error %q does not name the position and function helper", err)
			}
		})
	}
}
