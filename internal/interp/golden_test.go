package interp

import (
	"fmt"
	"path/filepath"
	"testing"

	"hsmcc/internal/golden"
)

// verifySim pins a finished session's simulated results — output,
// makespan and the machine's cycle statistics — to the digest committed
// for the named test in testdata/<test>.digests. The digests were
// recorded while the compiled engine and the tree-walk reference both
// produced them.
func verifySim(t *testing.T, test string, s *Sim) {
	t.Helper()
	set := golden.NewSet(filepath.Join("testdata", test+".digests"))
	set.Add("sim", golden.Sum(fmt.Appendf(nil, "%d %+v %q", s.Makespan(), s.Machine.TotalStats(), s.Output())))
	set.Verify(t)
}
