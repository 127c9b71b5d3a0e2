package conformance

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vessel/internal/obs"
)

// schedGoldenRun renders, for every scheduler on a small matrix of
// memcached + two membench colocations, the run's Canonical() bytes and
// its obs registry snapshot.
func schedGoldenRun(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, s := range Variants() {
		for _, cores := range []int{4, 16} {
			for _, bwFrac := range []float64{0, 0.3} {
				for _, load := range []float64{0.1, 0.5, 0.9} {
					sc := Scenario{
						Seed:         1,
						Cores:        cores,
						DurationUs:   2000,
						WarmupUs:     200,
						BWTargetFrac: bwFrac,
						Apps: []AppSpec{
							{Name: "memcached", Kind: "L", Dist: "memcached", LoadFrac: load},
							{Name: "membench0", Kind: "B", BWDemand: 12, MemFrac: 0.7},
							{Name: "membench1", Kind: "B", BWDemand: 12, MemFrac: 0.7},
						},
					}
					cfg := sc.Config()
					cfg.Obs = obs.New(0)
					res, err := s.Run(cfg)
					if err != nil {
						t.Fatalf("%s %+v: %v", s.Name(), sc, err)
					}
					fmt.Fprintf(&b, "== %s cores=%d bw=%g load=%g\n", s.Name(), cores, bwFrac, load)
					b.Write(res.Canonical())
					b.WriteString(cfg.Obs.Reg().Snapshot().String())
				}
			}
		}
	}
	return b.Bytes()
}

// TestSchedGolden pins every scheduler's simulated bytes — results and
// registry counters — on a fixed matrix, so a refactor of the shared run
// skeleton or of any policy that changes what is charged shows up as a
// golden diff. Run with -update to rebless after an intentional change.
func TestSchedGolden(t *testing.T) {
	got := schedGoldenRun(t)
	path := filepath.Join("testdata", "sched_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s missing (run with -update to create): %v", path, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s differs from golden at line %d:\n got  %s\n want %s\nrun with -update after intentional changes",
				path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s differs from golden in length (%d vs %d lines); run with -update after intentional changes",
		path, len(gl), len(wl))
}
