package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"kkt/internal/admit"
	"kkt/internal/faultplan"
	"kkt/internal/obsv"
)

// checkpointVersion gates the on-disk format; bump on incompatible change.
const checkpointVersion = 1

// Fingerprint pins every input that determines the daemon's event
// sequence. Resume refuses a checkpoint whose fingerprint differs from
// the daemon's configuration — continuing under different knobs would
// silently produce a run no uninterrupted daemon could reproduce.
type Fingerprint struct {
	Spec        GraphSpec      `json:"spec"`
	Algo        string         `json:"algo"`
	Seed        uint64         `json:"seed"`
	Wave        int            `json:"wave,omitempty"`
	EpochEvents int            `json:"epoch_events"`
	Churn       faultplan.Plan `json:"churn,omitempty"`
	TraceDigest string         `json:"trace_digest,omitempty"`
}

// ObsShift is the serialized observability offset: the cumulative
// timeline a resumed daemon's recorder continues from, keyed by kind
// name (kind IDs are process-interned and do not survive restarts).
type ObsShift struct {
	Now      int64            `json:"now"`
	Messages uint64           `json:"messages"`
	Bits     uint64           `json:"bits"`
	ByKind   []obsv.KindTotal `json:"by_kind,omitempty"`
}

// Checkpoint is the daemon's durable snapshot, written atomically at
// epoch boundaries. Digest is the embedded State's digest, recomputed and
// verified on load so a truncated or hand-edited file is rejected before
// it can silently fork the run.
type Checkpoint struct {
	Version     int              `json:"version"`
	Fingerprint Fingerprint      `json:"fingerprint"`
	Epoch       int              `json:"epoch"`
	EventsDone  int              `json:"events_done"`
	State       State            `json:"state"`
	Queue       admit.QueueState `json:"queue"`
	Obs         ObsShift         `json:"obs"`
	Digest      string           `json:"digest"`
}

// WriteCheckpoint serializes the checkpoint to path atomically
// (temp file + rename), stamping version and state digest.
func WriteCheckpoint(path string, cp Checkpoint) error {
	cp.Version = checkpointVersion
	cp.Digest = cp.State.Digest()
	blob, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".kkt-checkpoint-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(append(blob, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// ReadCheckpoint loads and integrity-checks a checkpoint.
func ReadCheckpoint(path string) (Checkpoint, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Checkpoint{}, err
	}
	return decodeCheckpoint(path, blob)
}

// decodeCheckpoint parses a checkpoint and checks its version, its state
// digest and its content; name labels errors.
func decodeCheckpoint(name string, blob []byte) (Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(blob, &cp); err != nil {
		return cp, fmt.Errorf("serve: checkpoint %s: %w", name, err)
	}
	if cp.Version != checkpointVersion {
		return cp, fmt.Errorf("serve: checkpoint %s: version %d, want %d", name, cp.Version, checkpointVersion)
	}
	if got := cp.State.Digest(); got != cp.Digest {
		return cp, fmt.Errorf("serve: checkpoint %s: state digest mismatch (file corrupt?)", name)
	}
	if err := cp.validate(); err != nil {
		return cp, fmt.Errorf("serve: checkpoint %s: %w", name, err)
	}
	return cp, nil
}

// validate rejects content no daemon writes. The digest is a plain sha256
// anyone can recompute, so it catches corruption but not an edited file;
// this keeps an edited one from panicking the engine.
func (cp Checkpoint) validate() error {
	if cp.Epoch < 0 || cp.EventsDone < 0 {
		return fmt.Errorf("epoch %d, events_done %d: want >= 0", cp.Epoch, cp.EventsDone)
	}
	if err := cp.State.validate(); err != nil {
		return err
	}
	if n := len(cp.Queue.Pending); n != 0 {
		// The daemon checkpoints only at epoch boundaries, after a full
		// drain.
		return fmt.Errorf("queue has %d pending events, want none", n)
	}
	for _, kt := range cp.Obs.ByKind {
		if kt.Kind == "" {
			return fmt.Errorf("obs: empty message-kind name")
		}
	}
	return nil
}
