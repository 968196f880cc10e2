package pthreadrt

import (
	"fmt"
	"runtime"
	"testing"

	"hsmcc/internal/interp"
	"hsmcc/internal/sccsim"
)

// countingRuntime wraps the pthread runtime and samples the host
// goroutine count at every statement boundary — including while threads
// are being created and joined mid-run.
type countingRuntime struct {
	inner   *Runtime
	samples int
	min     int
	max     int
}

func (c *countingRuntime) CallBuiltin(p *interp.Proc, name string, args []interp.Value) (interp.Value, bool, error) {
	return c.inner.CallBuiltin(p, name, args)
}

func (c *countingRuntime) Tick(p *interp.Proc) {
	n := runtime.NumGoroutine()
	if c.samples == 0 || n < c.min {
		c.min = n
	}
	if c.samples == 0 || n > c.max {
		c.max = n
	}
	c.samples++
	c.inner.Tick(p)
}

func (c *countingRuntime) OnExit(p *interp.Proc) { c.inner.OnExit(p) }

// TestCoroutineZeroGoroutines is the tentpole invariant: under the
// coroutine engine a multi-context run — threads created, scheduled,
// blocked on joins and mutexes, and exited mid-run — never creates a
// goroutine or varies the host goroutine count.
func TestCoroutineZeroGoroutines(t *testing.T) {
	checkZeroGoroutines(t, sccsim.DefaultConfig(), 8)
}

// TestCoroutineZeroGoroutinesMesh1024 re-pins the invariant at scale:
// 1024 contexts on the mesh1024 preset, where per-context allocations or
// a stray goroutine per switch would be 128x louder than on the SCC.
func TestCoroutineZeroGoroutinesMesh1024(t *testing.T) {
	checkZeroGoroutines(t, sccsim.MustPreset("mesh1024"), 1024)
}

// checkZeroGoroutines runs an nthreads-way create/lock/join program on a
// machine built from mcfg and asserts the host goroutine count never
// moves, sampled at every statement boundary.
func checkZeroGoroutines(t *testing.T, mcfg sccsim.Config, nthreads int) {
	t.Helper()
	src := fmt.Sprintf(`
int done[%d];
int gsum;
pthread_mutex_t mu;
void *tf(void *arg) {
  int me; int i;
  me = (int)arg;
  for (i = 0; i < 200; i++) done[me] = done[me] + i;
  pthread_mutex_lock(&mu);
  gsum = gsum + done[me];
  pthread_mutex_unlock(&mu);
  pthread_exit(NULL);
}
int main() {
  pthread_t th[%d];
  int t;
  pthread_mutex_init(&mu, NULL);
  for (t = 0; t < %d; t++) pthread_create(&th[t], NULL, tf, (void *)t);
  for (t = 0; t < %d; t++) pthread_join(th[t], NULL);
  printf("g %%d\n", gsum);
  return 0;
}`, nthreads, nthreads, nthreads, nthreads)
	pr, err := interp.Compile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	sim := interp.NewSim(sccsim.MustNew(mcfg), pr)
	rt := New(sim, DefaultOptions())
	counter := &countingRuntime{inner: rt}
	sim.Runtime = counter

	root, err := sim.Spawn(0, pr.Funcs["main"], nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt.tidOf[root] = 0
	rt.byTID[0] = root

	before := runtime.NumGoroutine()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	after := runtime.NumGoroutine()

	if counter.samples == 0 {
		t.Fatal("runtime ticks never sampled")
	}
	if counter.min != before || counter.max != before {
		t.Errorf("goroutine count varied during the run: before=%d min=%d max=%d (samples=%d)",
			before, counter.min, counter.max, counter.samples)
	}
	if after != before {
		t.Errorf("goroutine count changed across the run: %d -> %d", before, after)
	}
	if got, want := sim.Output(), fmt.Sprintf("g %d\n", nthreads*19900); got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}
