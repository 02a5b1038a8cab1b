package mpc

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_mpc.txt from the current solver")

const goldenPath = "testdata/golden_mpc.txt"

// goldenRows runs DeterministicColorMPC over the fixed matrix and renders
// one line per run: the SHA-256 of the coloring, the cluster's Metrics and
// the solver's MPCSolveStats. Any change to a protocol's message pattern,
// its space accounting or the seeds it picks changes some line.
func goldenRows(t *testing.T) []string {
	t.Helper()
	graphs := []struct {
		name string
		in   *d1lc.Instance
	}{
		{"cycle48", d1lc.TrivialPalettes(graph.Cycle(48))},
		{"gnp40", d1lc.TrivialPalettes(graph.Gnp(40, 0.12, 5))},
		{"gnp80", d1lc.TrivialPalettes(graph.Gnp(80, 0.08, 1))},
		{"randpal", d1lc.RandomPalettes(graph.RandomRegular(40, 4, 2), 2, 20, 3)},
	}
	spaces := []struct {
		name   string
		s      int
		strict bool
	}{
		{"roomy", 1 << 16, true},
		// Tight enough that every full run overflows s somewhere, like
		// E16's s=128 rows at larger n: violations are recorded, not fatal.
		{"tight", 64, false},
	}
	var rows []string
	for _, g := range graphs {
		for _, sp := range spaces {
			for _, bits := range []int{4, 6} {
				for _, naive := range []bool{false, true} {
					// maxRounds 1 leaves nodes for the residue gather and
					// the machine-0 greedy; 0 runs the solver's default.
					for _, maxRounds := range []int{0, 1} {
						name := fmt.Sprintf("%s s=%d bits=%d naive=%v maxRounds=%d", g.name, sp.s, bits, naive, maxRounds)
						c, err := ClusterForGraph(g.in.G, sp.s, sp.strict)
						if err != nil {
							t.Fatal(err)
						}
						col, st, err := DeterministicColorMPC(context.Background(), c, g.in, bits, maxRounds, nil, RoundOptions{NaiveScoring: naive})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if err := d1lc.Verify(g.in, col); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !sp.strict && maxRounds == 0 && c.Metrics.Violations == 0 {
							t.Fatalf("%s: tight run recorded no violations", name)
						}
						if maxRounds == 1 && st.Residue == 0 {
							t.Fatalf("%s: nothing left for the residue greedy", name)
						}
						buf := make([]byte, 4*len(col.Colors))
						for v, cc := range col.Colors {
							binary.LittleEndian.PutUint32(buf[4*v:], uint32(cc))
						}
						m := c.Metrics
						rows = append(rows, fmt.Sprintf(
							"%s colors=%x rounds=%d maxStored=%d maxSent=%d maxReceived=%d totalMessages=%d violations=%d trcRounds=%d mpcRounds=%d residue=%d seedsTried=%d",
							name, sha256.Sum256(buf),
							m.Rounds, m.MaxStored, m.MaxSent, m.MaxReceived, m.TotalMessages, m.Violations,
							st.TRCRounds, st.MPCRounds, st.Residue, st.SeedsTried))
					}
				}
			}
		}
	}
	return rows
}

// TestGoldenMPC pins the whole MPC path to a committed record. Regenerate
// with `go test ./internal/mpc -run Golden -update` only when a change is
// meant to alter the protocols, and say why in CHANGES.md.
func TestGoldenMPC(t *testing.T) {
	got := strings.Join(goldenRows(t), "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("golden has %d lines, run produced %d", len(wl), len(gl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("line %d differs:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
}
