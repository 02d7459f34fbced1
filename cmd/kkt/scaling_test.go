package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScalingTableGolden pins the rendered sweep table and the
// SCALING_*.json report bytes for a tiny fixed ladder. Like the bench
// golden, the report file is the regression gate for "identical configs
// give byte-identical reports".
func TestScalingTableGolden(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "SCALING_test.json")
	code, out, stderr := exec(t, "scaling",
		"--families", "gnm", "--algos", "mst,flood",
		"--ladder", "64,128,256", "--seeds", "3", "--seed", "7",
		"--quiet", "--out", outPath)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	out = strings.ReplaceAll(out, outPath, "SCALING_test.json")
	golden(t, "scaling_tiny.txt", []byte(out))
	blob, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "scaling_tiny_report.json", blob)
}

func TestScalingJSONMatchesReportFile(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "SCALING_test.json")
	code, out, stderr := exec(t, "scaling",
		"--families", "gnm", "--algos", "flood",
		"--ladder", "64,128,256", "--seeds", "2", "--seed", "7",
		"--quiet", "--json", "--out", outPath)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	blob, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(blob) {
		t.Error("scaling --json stdout differs from the written report")
	}
	if !strings.Contains(out, `"schema": "kkt/scaling/v1"`) {
		t.Errorf("report schema missing: %s", out[:120])
	}
}

// TestScalingUnknownVocabExitsTwo: mistyped families, algorithms and
// density knobs are usage errors (exit 2) with "did you mean"
// suggestions, matching the kkt run convention for scenario names.
func TestScalingUnknownVocabExitsTwo(t *testing.T) {
	cases := []struct {
		args    []string
		report  string
		suggest string
	}{
		{[]string{"scaling", "--families", "gnn"}, "unknown family", "gnm"},
		{[]string{"scaling", "--families", "hypercub"}, "unknown family", "hypercube"},
		{[]string{"scaling", "--algos", "mts,ghs"}, "unknown algorithm", "mst"},
		{[]string{"scaling", "--algos", "floood"}, "unknown algorithm", "flood"},
		{[]string{"scaling", "--density", "cubic"}, "unknown density", ""},
	}
	for _, tc := range cases {
		code, _, stderr := exec(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit = %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr, tc.report) {
			t.Errorf("%v: %q not reported: %q", tc.args, tc.report, stderr)
		}
		if tc.suggest != "" && (!strings.Contains(stderr, "did you mean") || !strings.Contains(stderr, tc.suggest)) {
			t.Errorf("%v: suggestion %q missing: %q", tc.args, tc.suggest, stderr)
		}
	}
}

// TestScalingMalformedLadderExitsTwo: every malformed --ladder shape is a
// reported usage error, not a silent default or a runtime failure.
func TestScalingMalformedLadderExitsTwo(t *testing.T) {
	cases := []struct {
		ladder string
		want   string
	}{
		{"64:32:5", "lo 64 not below hi 32"},
		{"64:4096", "want lo:hi:rungs"},
		{"64:4096:1", "want an integer >= 2"},
		{"64:4096:x", "want an integer >= 2"},
		{"abc,128", "positive integer"},
		{"512", "want >= 2"},
		{"512,512", "want >= 2"},
		{"4,64", "too small"},
		{",", "no sizes"},
		{"256:4096:999999999999999", "at most 64"},
		{"256:4096:100000000", "at most 64"},
		{"9223372036854775807k,300", "positive integer up to"},
	}
	for _, tc := range cases {
		code, _, stderr := exec(t, "scaling", "--ladder", tc.ladder)
		if code != 2 {
			t.Errorf("--ladder %q: exit = %d, want 2", tc.ladder, code)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("--ladder %q: error %q missing from %q", tc.ladder, tc.want, stderr)
		}
	}
}

func TestScalingPositionalArgExitsTwo(t *testing.T) {
	code, _, stderr := exec(t, "scaling", "gnm")
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "no positional arguments") {
		t.Errorf("stderr = %q", stderr)
	}
}

func TestParseLadderShapes(t *testing.T) {
	cases := []struct {
		in   string
		want []int
	}{
		{"256:4096:5", []int{256, 512, 1024, 2048, 4096}},
		{"1k:4k:3", []int{1024, 2048, 4096}},
		{"64,128, 256", []int{64, 128, 256}},
		{"2k", []int{2048}},
	}
	for _, tc := range cases {
		got, err := parseLadder(tc.in)
		if err != nil {
			t.Errorf("parseLadder(%q): %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("parseLadder(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("parseLadder(%q) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}
