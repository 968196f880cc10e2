package pthreadrt

import (
	"testing"

	"hsmcc/internal/interp"
	"hsmcc/internal/profile"
	"hsmcc/internal/sccsim"
)

// TestBaselineProfilerCountsGlobalTraffic pins the Options.Profiler
// seam: profiling a baseline run labels the shared globals' static
// addresses with Collector.AddRange and observes exactly one report per
// timed access, including accesses whose yield suspends the thread.
func TestBaselineProfilerCountsGlobalTraffic(t *testing.T) {
	const src = `
#include <stdio.h>
#include <pthread.h>

int counter[4];

void *tf(void *tid) {
    int me = (int)tid;
    counter[me] = counter[me] + 1;
    pthread_exit(0);
}

int main() {
    pthread_t t[4];
    int i;
    for (i = 0; i < 4; i++) {
        pthread_create(&t[i], 0, tf, (void *)i);
    }
    for (i = 0; i < 4; i++) {
        pthread_join(t[i], 0);
    }
    return 0;
}
`
	run := func() []profile.VarStats {
		pr, err := interp.Compile("prof.c", src)
		if err != nil {
			t.Fatal(err)
		}
		col := profile.NewCollector(profile.Spec{})
		for _, d := range pr.File.Globals() {
			addr, ok := pr.GlobalAddr(d.Sym)
			if !ok {
				t.Fatalf("global %s has no address", d.Name)
			}
			col.AddRange(d.Name, addr, d.Type.Size())
		}
		opts := DefaultOptions()
		opts.Profiler = col
		if _, err := Run(pr, sccsim.MustNew(sccsim.DefaultConfig()), opts); err != nil {
			t.Fatal(err)
		}
		return col.Snapshot()
	}

	prof := run()
	if len(prof) != 1 || prof[0].Name != "counter" {
		t.Fatalf("profile = %+v, want the counter array", prof)
	}
	// Each of the four threads performs exactly one read and one write
	// of its element; any double-reporting across yields would inflate
	// these.
	if prof[0].Reads != 4 || prof[0].Writes != 4 {
		t.Errorf("counter traffic = %d reads/%d writes, want 4/4", prof[0].Reads, prof[0].Writes)
	}
}
