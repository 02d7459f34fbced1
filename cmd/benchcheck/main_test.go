package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: kkt/internal/congest
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSend-4     	  200000	        29.19 ns/op	       0 B/op	       0 allocs/op
BenchmarkSendAsync-4	  200000	        62.0 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	kkt/internal/congest	0.064s
BenchmarkBuildMST 	      10	   4555666 ns/op	  444456 B/op	    4169 allocs/op
`

func TestParseBench(t *testing.T) {
	art, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if art.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q", art.CPU)
	}
	send, ok := art.Benchmarks["BenchmarkSend"]
	if !ok {
		t.Fatalf("BenchmarkSend missing (GOMAXPROCS suffix not stripped?): %v", art.Benchmarks)
	}
	if send.NsPerOp != 29.19 || send.AllocsPerOp != 0 {
		t.Errorf("BenchmarkSend = %+v", send)
	}
	mst, ok := art.Benchmarks["BenchmarkBuildMST"]
	if !ok || mst.AllocsPerOp != 4169 || mst.BytesPerOp != 444456 {
		t.Errorf("BenchmarkBuildMST = %+v ok=%v", mst, ok)
	}
}

func TestParseBenchRejectsEmptyInput(t *testing.T) {
	if _, err := parseBench(strings.NewReader("no benchmarks here\n")); err == nil {
		t.Error("expected an error for input without benchmark lines")
	}
}

// writeArtifact dumps an artifact for compare tests.
func writeArtifact(t *testing.T, dir, name string, art Artifact) string {
	t.Helper()
	blob, _ := json.Marshal(art)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareGates(t *testing.T) {
	dir := t.TempDir()
	base := Artifact{CPU: "cpuX", Benchmarks: map[string]Bench{
		"BenchmarkSend": {NsPerOp: 100, AllocsPerOp: 0},
	}}
	macroBase := Artifact{CPU: "cpuX", Benchmarks: map[string]Bench{
		"BenchmarkBuild": {NsPerOp: 1000, BytesPerOp: 100000, AllocsPerOp: 2000},
	}}
	pooledBase := Artifact{CPU: "cpuX", Benchmarks: map[string]Bench{
		"BenchmarkEcho": {NsPerOp: 1000, BytesPerOp: 40, AllocsPerOp: 0},
	}}
	for _, tc := range []struct {
		name  string
		base  *Artifact
		fresh Artifact
		want  int
	}{
		{"macro-allocs-jitter-within-tolerance", &macroBase, Artifact{CPU: "cpuX", Benchmarks: map[string]Bench{
			"BenchmarkBuild": {NsPerOp: 1000, AllocsPerOp: 2030}}}, 0},
		{"macro-allocs-real-regression", &macroBase, Artifact{CPU: "cpuX", Benchmarks: map[string]Bench{
			"BenchmarkBuild": {NsPerOp: 1000, AllocsPerOp: 2500}}}, 1},
		{"macro-bytes-jitter-within-tolerance", &macroBase, Artifact{CPU: "cpuX", Benchmarks: map[string]Bench{
			"BenchmarkBuild": {NsPerOp: 1000, BytesPerOp: 103000, AllocsPerOp: 2000}}}, 0},
		{"macro-bytes-real-regression", &macroBase, Artifact{CPU: "cpuX", Benchmarks: map[string]Bench{
			"BenchmarkBuild": {NsPerOp: 1000, BytesPerOp: 130000, AllocsPerOp: 2000}}}, 1},
		{"macro-bytes-regression-other-cpu-still-fails", &macroBase, Artifact{CPU: "cpuY", Benchmarks: map[string]Bench{
			"BenchmarkBuild": {NsPerOp: 1000, BytesPerOp: 130000, AllocsPerOp: 2000}}}, 1},
		{"zero-alloc-pool-bytes-not-gated", &pooledBase, Artifact{CPU: "cpuX", Benchmarks: map[string]Bench{
			"BenchmarkEcho": {NsPerOp: 1000, BytesPerOp: 262, AllocsPerOp: 0}}}, 0},
		{"identical", nil, Artifact{CPU: "cpuX", Benchmarks: map[string]Bench{
			"BenchmarkSend": {NsPerOp: 100, AllocsPerOp: 0}}}, 0},
		{"ns-within-tolerance", nil, Artifact{CPU: "cpuX", Benchmarks: map[string]Bench{
			"BenchmarkSend": {NsPerOp: 115, AllocsPerOp: 0}}}, 0},
		{"ns-regression", nil, Artifact{CPU: "cpuX", Benchmarks: map[string]Bench{
			"BenchmarkSend": {NsPerOp: 150, AllocsPerOp: 0}}}, 1},
		{"ns-regression-other-cpu-skipped", nil, Artifact{CPU: "cpuY", Benchmarks: map[string]Bench{
			"BenchmarkSend": {NsPerOp: 150, AllocsPerOp: 0}}}, 0},
		{"allocs-regression", nil, Artifact{CPU: "cpuX", Benchmarks: map[string]Bench{
			"BenchmarkSend": {NsPerOp: 100, AllocsPerOp: 1}}}, 1},
		{"allocs-regression-other-cpu-still-fails", nil, Artifact{CPU: "cpuY", Benchmarks: map[string]Bench{
			"BenchmarkSend": {NsPerOp: 100, AllocsPerOp: 1}}}, 1},
		{"missing-bench", nil, Artifact{CPU: "cpuX", Benchmarks: map[string]Bench{}}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := base
			if tc.base != nil {
				b = *tc.base
			}
			basePath := writeArtifact(t, dir, "base_"+tc.name+".json", b)
			freshPath := writeArtifact(t, dir, "fresh_"+tc.name+".json", tc.fresh)
			got := cmdCompare([]string{"-baseline", basePath, "-fresh", freshPath, "-ns-tol", "0.20"})
			if got != tc.want {
				t.Errorf("exit = %d, want %d", got, tc.want)
			}
		})
	}
}
