package experiments

import (
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Quick: true, Seed: 7, SeedBits: 4} }

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry order %v", got)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("E99", quickCfg()); err == nil {
		t.Fatal("expected error")
	}
}

func TestE1AllProper(t *testing.T) {
	tb, err := Run("E1", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("empty table")
	}
	for _, row := range tb.Rows {
		if row[len(row)-1] != "yes" {
			t.Fatalf("E1 row not proper: %v", row)
		}
	}
}

func TestE2AllProper(t *testing.T) {
	tb, err := Run("E2", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[len(row)-1] != "yes" {
			t.Fatalf("E2 row not proper: %v", row)
		}
	}
}

func TestE3CertificatesHold(t *testing.T) {
	tb, err := Run("E3", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[len(row)-1] != "yes" {
			t.Fatalf("E3 certificate failed: %v", row)
		}
	}
}

func TestE4RatiosCertified(t *testing.T) {
	tb, err := Run("E4", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		// maxRatio column is index 5; must parse < 1 when nodes partitioned.
		if row[3] == "0" {
			continue
		}
		if !(row[5][0] == '0' || row[5] == "0") {
			t.Fatalf("E4 ratio not <1: %v", row)
		}
	}
}

func TestE5RunsAndShrinks(t *testing.T) {
	tb, err := Run("E5", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("empty")
	}
}

func TestE6AllProper(t *testing.T) {
	tb, err := Run("E6", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[len(row)-1] != "yes" {
			t.Fatalf("E6 row not proper: %v", row)
		}
	}
}

func TestE7TraceNonEmpty(t *testing.T) {
	tb, err := Run("E7", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 5 {
		t.Fatalf("trace too short: %d rows", len(tb.Rows))
	}
}

func TestE8ValidMIS(t *testing.T) {
	tb, err := Run("E8", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[len(row)-1] != "yes" || row[len(row)-2] != "yes" {
			t.Fatalf("E8 row invalid: %v", row)
		}
	}
}

func TestE9NoViolations(t *testing.T) {
	tb, err := Run("E9", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[len(row)-2] != "0" {
			t.Fatalf("E9 space violations: %v", row)
		}
		if row[len(row)-1] != "yes" {
			t.Fatalf("E9 coloring improper: %v", row)
		}
	}
}

func TestE10Rows(t *testing.T) {
	tb, err := Run("E10", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
}

func TestRenderAll(t *testing.T) {
	for _, id := range []string{"E1", "E8"} {
		tb, err := Run(id, quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		out := tb.Render()
		if !strings.Contains(out, "== "+id) {
			t.Fatalf("render missing id header: %s", out[:60])
		}
	}
}

func TestE11BothModesProper(t *testing.T) {
	tb, err := Run("E11", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	modes := map[string]bool{}
	for _, row := range tb.Rows {
		modes[row[3]] = true
		if row[len(row)-1] != "yes" {
			t.Fatalf("E11 row not proper: %v", row)
		}
	}
	if !modes["linial-power"] || !modes["identity"] {
		t.Fatalf("E11 missing a chunk mode: %v", modes)
	}
}

func TestE12SettingsSweep(t *testing.T) {
	tb, err := Run("E12", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 4 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
}

func TestE13QualityRows(t *testing.T) {
	tb, err := Run("E13", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[4] == "-1" {
			t.Fatalf("E13 solver error row: %v", row)
		}
	}
}

func TestE14BiasBounded(t *testing.T) {
	tb, err := Run("E14", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 3 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
}

func TestE16ProtocolsAgreeAndNeverRegress(t *testing.T) {
	tb, err := Run("E16", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("empty table")
	}
	for _, row := range tb.Rows {
		// agree column encodes seed equality, colored equality, AND
		// rowRounds ≤ scalarRounds.
		if row[len(row)-2] != "yes" {
			t.Fatalf("E16 protocols disagree or rounds regressed: %v", row)
		}
	}
}

func TestE15RecoversPlantedCliquesAtDefault(t *testing.T) {
	tb, err := Run("E15", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The sweep must contain a "good basin": some ε recovering all four
	// planted cliques with zero Definition 3 violations.
	found := false
	for _, row := range tb.Rows {
		if row[4] == "4" && row[6] == "0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no ε recovers the planted cliques violation-free: %v", tb.Rows)
	}
}
