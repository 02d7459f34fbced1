package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kkt/internal/faultplan"
	"kkt/internal/obsv"
)

func testConfig(dir string) Config {
	return Config{
		Spec: GraphSpec{Family: "gnm", N: 48, M: 144, Seed: 11},
		Algo: "mst",
		Seed: 0xdaeb0,
		Wave: 4,
		Churn: faultplan.Plan{
			TreeEdgeDeletes: 3, Deletes: 3, Inserts: 3, WeightChanges: 3,
		},
		EpochEvents:    8,
		Events:         64,
		CheckpointPath: filepath.Join(dir, "serve.ckpt"),
	}
}

// TestResumeDigestEquivalence is the tentpole acceptance gate: a churn
// run interrupted at an epoch boundary and resumed from its checkpoint
// must reach the same topology-state digest as the identical run executed
// without interruption.
func TestResumeDigestEquivalence(t *testing.T) {
	// Reference: uninterrupted run, no checkpointing.
	refCfg := testConfig(t.TempDir())
	refCfg.CheckpointPath = ""
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := map[[2]uint32]bool{}
	for _, e := range ref.State().Edges {
		initial[[2]uint32{e.A, e.B}] = true
	}
	refSum, err := ref.Run(context.Background())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	// The churned state, captured without a sort, must still be canonical;
	// inserted links make that a real check of the capture's order.
	inserted := 0
	for _, e := range ref.State().Edges {
		if !initial[[2]uint32{e.A, e.B}] {
			inserted++
		}
	}
	if inserted == 0 {
		t.Fatal("churned state holds no inserted link")
	}
	if err := ref.State().validate(); err != nil {
		t.Fatalf("churned state: %v", err)
	}

	// Interrupted: stop at the half-way epoch boundary, then resume from
	// the written checkpoint and finish.
	cfg := testConfig(t.TempDir())
	half := cfg
	half.Events = cfg.Events / 2
	d, err := New(half)
	if err != nil {
		t.Fatal(err)
	}
	halfSum, err := d.Run(context.Background())
	if err != nil {
		t.Fatalf("first half: %v", err)
	}
	if halfSum.Digest == refSum.Digest {
		t.Fatal("half-way digest already equals the final digest; churn too weak to prove anything")
	}

	cp, err := ReadCheckpoint(cfg.CheckpointPath)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	if cp.EventsDone != half.Events {
		t.Fatalf("checkpoint at %d events, want %d", cp.EventsDone, half.Events)
	}
	resumed, err := Resume(cfg, cp)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	resSum, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}

	if resSum.Digest != refSum.Digest {
		t.Errorf("digest diverged after resume:\n resumed   %s\n reference %s", resSum.Digest, refSum.Digest)
	}
	if !reflect.DeepEqual(resSum.Stats, refSum.Stats) {
		t.Errorf("stats diverged after resume:\n resumed   %+v\n reference %+v", resSum.Stats, refSum.Stats)
	}
	if resSum.Epochs != refSum.Epochs || resSum.EventsDone != refSum.EventsDone {
		t.Errorf("progress diverged: resumed %d/%d, reference %d/%d",
			resSum.Epochs, resSum.EventsDone, refSum.Epochs, refSum.EventsDone)
	}
}

// TestCancelThenResume interrupts a run with context cancellation — the
// daemon's SIGINT path, a stand-in for kill -9 at an arbitrary moment —
// and resumes from whatever checkpoint survived. The resumed run must
// still converge to the uninterrupted digest.
func TestCancelThenResume(t *testing.T) {
	refCfg := testConfig(t.TempDir())
	refCfg.CheckpointPath = ""
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	refSum, err := ref.Run(context.Background())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	cfg := testConfig(t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	cfg.OnEpoch = func(ei EpochInfo) {
		if ei.Epoch == 3 {
			cancel()
		}
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(ctx); err == nil {
		t.Fatal("cancelled run reported no error")
	}

	cfg.OnEpoch = nil
	cp, err := ReadCheckpoint(cfg.CheckpointPath)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	resumed, err := Resume(cfg, cp)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	resSum, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if resSum.Digest != refSum.Digest {
		t.Errorf("digest diverged after cancel+resume:\n resumed   %s\n reference %s", resSum.Digest, refSum.Digest)
	}
}

// TestResumeAfterBudgetCut reproduces the CI serve smoke gate: the churn
// plan compiles 12 events per epoch, so a run cut by an Events budget of
// 128 ends mid-way through epoch 11. That partial epoch must not become
// the resume point; the checkpoint stays at the last whole-epoch boundary,
// and a resumed run that replays the cut epoch whole reaches the
// uninterrupted run's digest, for mst and st alike.
func TestResumeAfterBudgetCut(t *testing.T) {
	for _, tc := range []struct {
		algo, want string // want pins the CI gate's reference digest
	}{
		{"mst", "sha256:ab38558287b633248da26ed5e7552130f7ceabf56536e47e7fef260fca5b932c"},
		{"st", ""},
	} {
		t.Run(tc.algo, func(t *testing.T) {
			cfg := Config{
				Spec:        GraphSpec{Family: "gnm", N: 256, M: 768, Seed: 11},
				Algo:        tc.algo,
				Seed:        77,
				Wave:        8,
				EpochEvents: 16,
				Churn:       faultplan.Plan{TreeEdgeDeletes: 4, Deletes: 3, Inserts: 3, WeightChanges: 2},
				Events:      256,
			}
			run := func(d *Daemon, err error) Summary {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				sum, err := d.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return sum
			}
			ref := run(New(cfg))
			if tc.want != "" && ref.Digest != tc.want {
				t.Fatalf("reference digest %s, want %s", ref.Digest, tc.want)
			}

			cut := cfg
			cut.Events = 128
			cut.CheckpointPath = filepath.Join(t.TempDir(), "serve.ckpt")
			run(New(cut))
			cp, err := ReadCheckpoint(cut.CheckpointPath)
			if err != nil {
				t.Fatal(err)
			}
			if cp.EventsDone != 120 || cp.Epoch != 10 {
				t.Fatalf("checkpoint at epoch %d, %d events; want the whole-epoch boundary 10, 120", cp.Epoch, cp.EventsDone)
			}
			cfg.CheckpointPath = cut.CheckpointPath
			res := run(Resume(cfg, cp))
			if res.Digest != ref.Digest || res.Epochs != ref.Epochs || !reflect.DeepEqual(res.Stats, ref.Stats) {
				t.Errorf("resumed run diverged:\n resumed   %d epochs %s %+v\n reference %d epochs %s %+v",
					res.Epochs, res.Digest, res.Stats, ref.Epochs, ref.Digest, ref.Stats)
			}
		})
	}
}

// TestResumeRejectsMismatchedConfig: a checkpoint must not resume under
// a configuration that would fork the event sequence.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.Events = 16
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
	bad := cfg
	bad.Seed++
	if _, err := Resume(bad, cp); err == nil {
		t.Error("resume accepted a checkpoint with a different seed")
	}
	bad = cfg
	bad.EpochEvents = 16
	if _, err := Resume(bad, cp); err == nil {
		t.Error("resume accepted a checkpoint with a different epoch size")
	}
}

// TestCheckpointRejectsCorruption: a bit-flipped state must fail the
// digest check on load.
func TestCheckpointRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckpt")
	cp := Checkpoint{
		Fingerprint: Fingerprint{Algo: "mst"},
		State:       State{N: 3, MaxRaw: 8, Edges: []EdgeState{{A: 1, B: 2, Raw: 5, Marked: true}}},
	}
	if err := WriteCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	good, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("clean checkpoint rejected: %v", err)
	}
	good.State.Edges[0].Raw = 6 // corrupt after digest was stamped
	blob := good
	blob.Digest = cp.State.Digest() // stale digest from pre-corruption state
	// Re-serialize by hand to bypass WriteCheckpoint's re-stamping.
	if err := writeRaw(path, blob); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); err == nil {
		t.Error("corrupted checkpoint accepted")
	}
}

// TestTraceRoundTrip: a compiled fault plan survives trace-file export
// and re-import byte-identically, header included.
func TestTraceRoundTrip(t *testing.T) {
	spec := GraphSpec{Family: "gnm", N: 32, M: 96, Seed: 5}.WithDefaults()
	g := spec.Build(1)
	plan := faultplan.Plan{Partitions: 1, PartitionSize: 4, Heals: 2, Deletes: 3, Inserts: 3, WeightChanges: 3}
	events := faultplan.Compile(plan, g, nil, 99)
	if len(events) == 0 {
		t.Fatal("plan compiled to zero events")
	}
	hdr := TraceHeader{Spec: spec, Digest: GraphDigest(g)}

	var buf bytes.Buffer
	if err := WriteTrace(&buf, hdr, events); err != nil {
		t.Fatal(err)
	}
	gotHdr, gotEvents, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotHdr, hdr) {
		t.Errorf("header changed in round trip:\n got  %+v\n want %+v", gotHdr, hdr)
	}
	if !reflect.DeepEqual(gotEvents, events) {
		t.Errorf("events changed in round trip (%d vs %d)", len(gotEvents), len(events))
	}
	if got := GraphDigest(spec.Build(4)); got != hdr.Digest {
		t.Errorf("spec rebuild digest %s != header digest %s (generation not worker-independent?)", got, hdr.Digest)
	}
}

// TestTraceReplayDeterminism: replaying the same trace through two fresh
// daemons yields identical digests, and the daemon's observer sees a
// continuous (strictly monotone) timeline across epoch rebuilds.
func TestTraceReplayDeterminism(t *testing.T) {
	spec := GraphSpec{Family: "gnm", N: 32, M: 96, Seed: 5}.WithDefaults()
	g := spec.Build(1)
	plan := faultplan.Plan{TreeEdgeDeletes: 4, Deletes: 4, Inserts: 4, WeightChanges: 4}
	events := faultplan.Compile(plan, g, nil, 99)

	run := func(shards int) (Summary, obsv.Snapshot) {
		rec := obsv.NewRecorder("trace-replay")
		d, err := New(Config{
			Spec: spec, Algo: "mst", Seed: 7, Wave: 4, Shards: shards,
			Trace: events, TraceDigest: GraphDigest(g),
			EpochEvents: 5, Observer: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := d.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return sum, rec.Snapshot()
	}
	sum1, snap1 := run(1)
	sum2, _ := run(2)
	if sum1.Digest != sum2.Digest {
		t.Errorf("trace replay digest differs across shard counts:\n shards=1 %s\n shards=2 %s", sum1.Digest, sum2.Digest)
	}
	if !reflect.DeepEqual(sum1.Stats, sum2.Stats) {
		t.Errorf("trace replay stats differ across shard counts")
	}
	var prev int64 = -1
	for _, rs := range snap1.RoundSamples {
		if rs.Now < prev {
			t.Fatalf("observer timeline went backwards across epochs: %d after %d", rs.Now, prev)
		}
		prev = rs.Now
	}
	if snap1.Repairs.Finished == 0 {
		t.Error("observer saw no finished repairs across the replay")
	}
}

func writeRaw(path string, cp Checkpoint) error {
	blob, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
