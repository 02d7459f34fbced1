package serve

import (
	"context"
	"path/filepath"
	"testing"

	"kkt/internal/obsv"
)

// checkpointEdits are hand edits that keep a checkpoint's JSON well formed
// and, once re-stamped by WriteCheckpoint, its digest valid. Unvalidated,
// each would panic the resumed daemon's engine or be silently accepted.
var checkpointEdits = []struct {
	name string
	edit func(cp *Checkpoint)
}{
	{"endpoint-zero", func(cp *Checkpoint) { cp.State.Edges[0].A = 0 }},
	{"endpoint-9999", func(cp *Checkpoint) { cp.State.Edges[len(cp.State.Edges)-1].B = 9999 }},
	{"raw-above-max", func(cp *Checkpoint) { cp.State.Edges[0].Raw = cp.State.MaxRaw + 1 }},
	{"duplicate-edge", func(cp *Checkpoint) {
		es := cp.State.Edges
		cp.State.Edges = append([]EdgeState{es[0]}, es...)
	}},
	{"n-10-against-spec-48", func(cp *Checkpoint) {
		// A self-consistent 10-node state: only the node count disagrees
		// with the spec.
		cp.State.N = 10
		var kept []EdgeState
		for _, e := range cp.State.Edges {
			if e.B <= 10 {
				kept = append(kept, e)
			}
		}
		cp.State.Edges = kept
	}},
	{"marked-cycle", func(cp *Checkpoint) {
		for i := range cp.State.Edges {
			cp.State.Edges[i].Marked = true
		}
	}},
	{"negative-events-done", func(cp *Checkpoint) { cp.EventsDone = -5 }},
	{"empty-obs-kind", func(cp *Checkpoint) { cp.Obs.ByKind = []obsv.KindTotal{{Kind: "", Messages: 1}} }},
}

// halfRunCheckpoint runs testConfig to its half-way epoch boundary and
// returns the checkpoint it wrote.
func halfRunCheckpoint(t testing.TB) Checkpoint {
	t.Helper()
	cfg := testConfig(t.TempDir())
	cfg.Events /= 2
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// editCheckpoint applies edit to a deep copy of cp.
func editCheckpoint(cp Checkpoint, edit func(*Checkpoint)) Checkpoint {
	cp.State.Edges = append([]EdgeState(nil), cp.State.Edges...)
	edit(&cp)
	return cp
}

// TestCheckpointRejectsEditedContent: an edited checkpoint with a valid
// digest is refused by ReadCheckpoint or Resume with an error.
func TestCheckpointRejectsEditedContent(t *testing.T) {
	base := halfRunCheckpoint(t)
	for _, tc := range checkpointEdits {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "c.ckpt")
			if err := WriteCheckpoint(path, editCheckpoint(base, tc.edit)); err != nil {
				t.Fatal(err)
			}
			cp, err := ReadCheckpoint(path)
			if err != nil {
				return
			}
			cfg := testConfig(t.TempDir())
			if _, err := Resume(cfg, cp); err == nil {
				t.Fatal("edited checkpoint accepted")
			}
		})
	}
}

// FuzzReadCheckpoint: no checkpoint file may panic the decoder, the
// validation, Resume against testConfig, or the resumed daemon's run. The
// seed corpus (testdata/fuzz/FuzzReadCheckpoint) holds a valid half-way
// checkpoint and the checkpointEdits cases.
func FuzzReadCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := decodeCheckpoint("fuzz", data)
		if err != nil {
			return
		}
		cfg := testConfig("")
		cfg.CheckpointPath = ""
		d, err := Resume(cfg, cp)
		if err != nil {
			return
		}
		// A run may still fail cleanly, e.g. when an edited but valid
		// state leaves the churn plan nothing to compile.
		_, _ = d.Run(context.Background())
	})
}
