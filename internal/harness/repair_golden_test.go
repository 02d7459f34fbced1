package harness

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestRepairReportGolden pins every builtin MST and ST repair scenario
// (uniform and adversarial fault plans through the admission queue)
// except the 100k storm, at 2 trials and seed 7. The fixture holds one
// readable line per trial plus the SHA-256 of the full marshalled report,
// so any change to an action, a message, a bit or a round fails here. Run
// with -update to regenerate after an intentional change.
func TestRepairReportGolden(t *testing.T) {
	var specs []Spec
	for _, s := range Builtin().Specs() {
		repair := strings.HasPrefix(s.Name, "mst-repair/") || strings.HasPrefix(s.Name, "st-repair/")
		if repair && !strings.Contains(s.Name, "gnm-100k") {
			specs = append(specs, s)
		}
	}
	cfg := RunConfig{Trials: 2, Seed: 7, Workers: 2}
	results := RunAll(specs, cfg)
	raw, err := NewReport("repair-golden", cfg, results).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, res := range results {
		for _, tm := range res.Trials {
			if tm.Error != "" {
				t.Errorf("%s trial %d: %s", res.Spec.Name, tm.Trial, tm.Error)
			}
			fmt.Fprintf(&b, "%s seed=%d actions=%s messages=%d bits=%d time=%d valid=%v\n",
				res.Spec.Name, tm.Seed, formatActions(tm.Actions), tm.Messages, tm.Bits, tm.Time, tm.Valid)
		}
	}
	fmt.Fprintf(&b, "sha256 %x\n", sha256.Sum256(raw))
	got := b.String()

	path := filepath.Join("testdata", "repair_golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run 'go test ./internal/harness -run RepairReportGolden -update' to create it)", err)
	}
	if got != string(want) {
		t.Errorf("repair report deviates from %s;\ngot:\n%s", path, got)
	}
}

// formatActions renders an action tally as sorted name:count pairs.
func formatActions(actions map[string]int) string {
	names := make([]string, 0, len(actions))
	for name := range actions {
		names = append(names, name)
	}
	slices.Sort(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s:%d", name, actions[name])
	}
	return strings.Join(parts, ",")
}
