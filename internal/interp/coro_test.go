package interp

import (
	"runtime"
	"testing"

	"hsmcc/internal/sccsim"
)

// coroProgram is a compute+memory kernel that exercises yields (memory
// cadence and clock horizon) without needing a runtime.
const coroProgram = `
int a[64];
int work(int n) {
  int i; int s;
  s = 0;
  for (i = 0; i < n; i++) { a[i % 64] = a[i % 64] + i; s = s + a[i % 64]; }
  return s;
}
int main() {
  printf("s %d\n", work(20000));
  return 0;
}`

// TestCoroutineModeEngaged runs the kernel as coroutines on the calling
// goroutine — no goroutine is started for any context — and pins its
// output, makespan and cycle statistics to the digest the compiled and
// tree-walk engines both produced.
func TestCoroutineModeEngaged(t *testing.T) {
	pr, err := Compile("c.c", coroProgram)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim(sccsim.MustNew(sccsim.DefaultConfig()), pr)
	before := runtime.NumGoroutine()
	if _, err := sim.Spawn(0, pr.Funcs["main"], nil, 0); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("spawn started goroutines: %d -> %d", before, n)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	verifySim(t, "TestCoroutineModeEngaged", sim)
}

// TestCoroutineFallOffEndReturn pins the return-cell arena against the
// resume-depth bug: a function that suspends inside a nested call and
// then completes WITHOUT a value-returning return statement must yield
// the zero Value — not whatever the nested call left in the arena. Needs
// two contexts so the yields actually suspend.
func TestCoroutineFallOffEndReturn(t *testing.T) {
	pr, err := Compile("f.c", `
int a[64];
int helper(int n) {
  int i; int s;
  s = 0;
  for (i = 0; i < n; i++) { a[i % 64] = a[i % 64] + i; s = s + a[i % 64]; }
  return s;
}
int noret(int n) { helper(n); }
int worker(int me) {
  printf("v%d %d\n", me, noret(20000));
  return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim(sccsim.MustNew(sccsim.DefaultConfig()), pr)
	for core := 0; core < 2; core++ {
		if _, err := sim.Spawn(core, pr.Funcs["worker"], []Value{IntValue(nil, int64(core))}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if want := "v0 0\nv1 0\n"; sim.Output() != want {
		t.Errorf("fall-off-the-end return = %q, want %q", sim.Output(), want)
	}
	verifySim(t, "TestCoroutineFallOffEndReturn", sim)
}

// TestSchedulerParityHeapVsLinearCoroutine pins the min-clock heap
// against the linear-scan oracle: multiple
// contexts interleaving through yields must produce byte-identical
// output and identical per-context clocks with either policy.
func TestSchedulerParityHeapVsLinearCoroutine(t *testing.T) {
	pr, err := Compile("p.c", `
int a[64];
int worker(int me) {
  int i; int s;
  s = 0;
  for (i = 0; i < 6000; i++) { a[(i + me) % 64] = a[(i + me) % 64] + me; s = s + a[(i + me) % 64]; }
  printf("w%d %d\n", me, s);
  return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	run := func(pol Policy) (*Sim, error) {
		sim := NewSim(sccsim.MustNew(sccsim.DefaultConfig()), pr)
		sim.Policy = pol
		for core := 0; core < 4; core++ {
			if _, err := sim.Spawn(core, pr.Funcs["worker"], []Value{IntValue(nil, int64(core))}, 0); err != nil {
				return nil, err
			}
		}
		return sim, sim.Run()
	}
	heap, err := run(NewMinClockHeap())
	if err != nil {
		t.Fatal(err)
	}
	linear, err := run(MinClock{})
	if err != nil {
		t.Fatal(err)
	}
	if heap.Output() != linear.Output() {
		t.Errorf("policy outputs diverge:\nheap:\n%s\nlinear:\n%s", heap.Output(), linear.Output())
	}
	if heap.Makespan() != linear.Makespan() {
		t.Errorf("policy makespans diverge: %d vs %d", heap.Makespan(), linear.Makespan())
	}
	hp, lp := heap.Procs(), linear.Procs()
	for i := range hp {
		if hp[i].Clock != lp[i].Clock {
			t.Errorf("proc %d clock: heap %d vs linear %d", i, hp[i].Clock, lp[i].Clock)
		}
	}
}
