package serve

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"kkt/internal/faultplan"
)

// gnm64Trace returns a trace file over the `kkt trace --n 64` initial
// graph carrying the given event lines.
func gnm64Trace(t *testing.T, lines ...string) []byte {
	t.Helper()
	spec := GraphSpec{Family: "gnm", N: 64, Seed: 1}.WithDefaults()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, TraceHeader{Spec: spec, Digest: GraphDigest(spec.Build(1))}, nil); err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		buf.WriteString(l + "\n")
	}
	return buf.Bytes()
}

// traceConfig is the daemon configuration `kkt serve --trace` builds
// from a parsed trace.
func traceConfig(hdr TraceHeader, evs []faultplan.Event) Config {
	return Config{Spec: hdr.Spec, Algo: "mst", Seed: 9, Trace: evs, TraceDigest: hdr.Digest}
}

// TestTraceEventValidation: a trace event whose endpoints lie outside the
// graph, or whose weight exceeds the graph's max_raw, is refused up front
// with an error naming the event — never a panic mid-replay or a silently
// applied no-op.
func TestTraceEventValidation(t *testing.T) {
	for _, tc := range []struct {
		line, want string
	}{
		{"i 3 70 5 -", "trace event 1 (insert 3 70): endpoint outside 1..64"},
		{"d 5 99999 0 -", "trace event 1 (delete 5 99999): endpoint outside 1..64"},
		{"w 17 12 999999999999 -", "trace event 1 (weight-change 17 12): raw weight 999999999999 outside 1..1024"},
	} {
		t.Run(tc.line, func(t *testing.T) {
			hdr, evs, err := ReadTrace(bytes.NewReader(gnm64Trace(t, "d 17 12 216 tree", tc.line)))
			if err != nil {
				t.Fatal(err)
			}
			_, err = New(traceConfig(hdr, evs))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New error = %v, want one containing %q", err, tc.want)
			}
		})
	}
	hdr, evs, err := ReadTrace(bytes.NewReader(gnm64Trace(t, "d 17 12 216 tree", "w 45 15 1024 -")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(traceConfig(hdr, evs)); err != nil {
		t.Fatalf("in-range trace refused: %v", err)
	}
}

// FuzzReadTrace: no trace file may panic the parser, the configuration
// check, or — for a small graph the check accepts — the replaying daemon.
func FuzzReadTrace(f *testing.F) {
	f.Add([]byte("#kkt-trace v1 {}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, evs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		cfg := traceConfig(hdr, evs).withDefaults()
		if cfg.validate() != nil || hdr.Spec.N > 64 || len(evs) > 64 {
			return
		}
		d, err := New(cfg)
		if err != nil {
			return // e.g. the digest does not match the rebuilt graph
		}
		if _, err := d.Run(context.Background()); err != nil {
			t.Fatalf("replay of an accepted trace failed: %v", err)
		}
	})
}
