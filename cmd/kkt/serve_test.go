package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"kkt/internal/obsv"
	"kkt/internal/serve"
)

// serveArgs is the shared small-graph workload the CLI tests run; fast
// enough for -race, churny enough that digests actually move.
func serveArgs(extra ...string) []string {
	args := []string{
		"serve", "--family", "gnm", "--n", "48", "--m", "144", "--graph-seed", "11",
		"--seed", "77", "--wave", "4", "--epoch-events", "8", "--events", "64",
		"--churn", "tree-deletes=3,deletes=3,inserts=3,weight-changes=3",
	}
	return append(args, extra...)
}

// finalDigest extracts the digest from the `serve: done ...` line.
func finalDigest(t *testing.T, stdout string) string {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		if strings.HasPrefix(line, "serve: done ") || strings.HasPrefix(line, "serve: interrupted ") {
			if i := strings.Index(line, "digest="); i >= 0 {
				return line[i+len("digest="):]
			}
		}
	}
	t.Fatalf("no serve summary line in output:\n%s", stdout)
	return ""
}

// TestServeResumeCLI is the tentpole gate at the CLI layer: a run cut
// short at half the events, resumed from its checkpoint, must print the
// same final digest as an uninterrupted run.
func TestServeResumeCLI(t *testing.T) {
	code, refOut, refErr := exec(t, serveArgs()...)
	if code != 0 {
		t.Fatalf("reference run exited %d:\n%s", code, refErr)
	}
	refDigest := finalDigest(t, refOut)

	ckpt := filepath.Join(t.TempDir(), "serve.ckpt")
	code, halfOut, halfErr := exec(t, serveArgs("--events", "32", "--checkpoint", ckpt)...)
	if code != 0 {
		t.Fatalf("half run exited %d:\n%s", code, halfErr)
	}
	if finalDigest(t, halfOut) == refDigest {
		t.Fatal("half-way digest equals the final digest; churn too weak to prove resume")
	}

	code, resOut, resErr := exec(t, serveArgs("--checkpoint", ckpt, "--resume")...)
	if code != 0 {
		t.Fatalf("resumed run exited %d:\n%s", code, resErr)
	}
	if got := finalDigest(t, resOut); got != refDigest {
		t.Errorf("resumed digest %s != reference %s", got, refDigest)
	}
	if !strings.Contains(resErr, "serve: resumed at epoch") {
		t.Errorf("resume did not announce itself:\n%s", resErr)
	}
}

// TestTraceExportReplayCLI: kkt trace writes a replayable file, and
// replaying it twice through kkt serve gives identical digests (and the
// same digest with churn parameters absent, proving the file is
// self-contained).
func TestTraceExportReplayCLI(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "churn.trace")
	code, _, errOut := exec(t, "trace", "--family", "gnm", "--n", "48", "--m", "144",
		"--graph-seed", "11", "--seed", "5",
		"--churn", "tree-deletes=4,deletes=4,inserts=4,weight-changes=4", "--out", trace)
	if code != 0 {
		t.Fatalf("trace exited %d:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "kkt: trace:") {
		t.Errorf("trace summary missing:\n%s", errOut)
	}

	replay := func() string {
		code, out, errOut := exec(t, "serve", "--trace", trace, "--seed", "9", "--wave", "4", "--epoch-events", "8")
		if code != 0 {
			t.Fatalf("replay exited %d:\n%s", code, errOut)
		}
		return finalDigest(t, out)
	}
	if d1, d2 := replay(), replay(); d1 != d2 {
		t.Errorf("trace replay digests differ: %s vs %s", d1, d2)
	}

	// A trace against a different initial graph must be refused.
	blob, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	tampered := filepath.Join(dir, "tampered.trace")
	if err := os.WriteFile(tampered, []byte(strings.Replace(string(blob), `"seed":11`, `"seed":12`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut = exec(t, "serve", "--trace", tampered)
	if code == 0 {
		t.Error("serve accepted a trace whose graph spec was tampered with")
	}
	if !strings.Contains(errOut, "different initial graph") {
		t.Errorf("tampered trace error not surfaced:\n%s", errOut)
	}
}

// TestServeObsEndpoints boots the daemon with --obs-listen :0 and
// --obs-addr-file, subscribes to the push stream while it runs, and
// checks (a) the bound address is published for scripts, (b) the push
// stream delivers a full snapshot then deltas that reconstruct live
// repair progress, (c) /metrics parses as Prometheus text, with one HELP
// and one TYPE ahead of each family's samples, and carries the serve
// recorder plus the build-info/uptime families.
func TestServeObsEndpoints(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "obs.addr")

	type result struct {
		code   int
		out    string
		errOut string
	}
	// Effectively-unbounded stream: the daemon must still be mid-run
	// while the subscriber attaches and reads; the test interrupts it
	// with SIGINT once the assertions are in (deterministic, and it
	// exercises the daemon's signal path for free).
	done := make(chan result, 1)
	go func() {
		code, out, errOut := exec(t, serveArgs("--events", "1048576",
			"--obs-listen", "127.0.0.1:0", "--obs-addr-file", addrFile)...)
		done <- result{code, out, errOut}
	}()

	var addr string
	for i := 0; i < 200; i++ {
		if blob, err := os.ReadFile(addrFile); err == nil && len(blob) > 0 {
			addr = strings.TrimSpace(string(blob))
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" {
		r := <-done
		t.Fatalf("obs-addr-file never appeared; daemon exited %d:\n%s", r.code, r.errOut)
	}

	c, err := serve.Subscribe("http://"+addr+"/ws", 5*time.Second)
	if err != nil {
		select {
		case r := <-done:
			t.Fatalf("subscribe %s: %v; daemon already exited %d:\nstdout:\n%s\nstderr:\n%s", addr, err, r.code, r.out, r.errOut)
		case <-time.After(2 * time.Second):
			t.Fatalf("subscribe %s: %v (daemon still running)", addr, err)
		}
	}
	defer c.Close()

	// Scrape /metrics while the daemon is live (it may finish its 4096
	// events before the stream assertions below complete).
	samples, err := parsePromText(httpGet(t, "http://"+addr+"/metrics"))
	if err != nil {
		t.Errorf("/metrics: %v", err)
	}
	for _, want := range []string{"kkt_build_info", "kkt_uptime_seconds", `kkt_trial_messages_total{trial="serve"}`} {
		if !slices.ContainsFunc(samples, func(s string) bool { return s == want || strings.HasPrefix(s, want+"{") }) {
			t.Errorf("/metrics has no sample %s", want)
		}
	}

	var state obsv.Snapshot
	sawFull, sawDelta, sawRepair := false, false, false
	for i := 0; i < 500 && !(sawFull && sawDelta && sawRepair); i++ {
		raw, err := c.Next(20 * time.Second)
		if err != nil {
			break // daemon finished and closed
		}
		var msg serve.PushMsg
		if err := json.Unmarshal(raw, &msg); err != nil {
			t.Fatalf("bad push message: %v", err)
		}
		switch {
		case msg.Full != nil:
			sawFull = true
			state = *msg.Full
		case msg.Delta != nil:
			if !sawFull {
				t.Fatal("delta before any full snapshot")
			}
			sawDelta = true
			state = obsv.Apply(state, *msg.Delta)
		}
		if state.Repairs.Finished > 0 {
			sawRepair = true
		}
	}
	if !sawFull || !sawDelta || !sawRepair {
		t.Errorf("stream incomplete: full=%v delta=%v repair=%v", sawFull, sawDelta, sawRepair)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.code != 0 {
		t.Fatalf("interrupted daemon exited %d:\n%s", r.code, r.errOut)
	}
	if !strings.Contains(r.out, "serve: interrupted ") {
		t.Errorf("daemon did not report a graceful interruption:\n%s", r.out)
	}
	finalDigest(t, r.out)
}

// TestWSCommandAgainstDaemon exercises the `kkt ws` subscriber end to end
// against a live daemon: it must print valid PushMsg JSON lines.
func TestWSCommandAgainstDaemon(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "obs.addr")
	done := make(chan int, 1)
	go func() {
		code, _, _ := exec(t, serveArgs("--events", "1048576",
			"--obs-listen", "127.0.0.1:0", "--obs-addr-file", addrFile)...)
		done <- code
	}()
	var addr string
	for i := 0; i < 200; i++ {
		if blob, err := os.ReadFile(addrFile); err == nil && len(blob) > 0 {
			addr = strings.TrimSpace(string(blob))
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("obs-addr-file never appeared (daemon exit %d)", <-done)
	}

	code, out, errOut := exec(t, "ws", addr, "--max", "3", "--timeout", "20s")
	if code != 0 {
		t.Fatalf("ws exited %d:\n%s", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("ws printed nothing")
	}
	for _, line := range lines {
		var msg serve.PushMsg
		if err := json.Unmarshal([]byte(line), &msg); err != nil {
			t.Errorf("ws line is not PushMsg JSON: %v\n%s", err, line)
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if <-done != 0 {
		t.Error("interrupted daemon exited nonzero")
	}
}

// TestParseChurn covers the plan-string grammar.
func TestParseChurn(t *testing.T) {
	p, err := parseChurn(" tree-deletes=3, deletes=2 ,inserts=1,heals=4,")
	if err != nil {
		t.Fatal(err)
	}
	if p.TreeEdgeDeletes != 3 || p.Deletes != 2 || p.Inserts != 1 || p.Heals != 4 {
		t.Errorf("parsed plan wrong: %+v", p)
	}
	for _, bad := range []string{"deletes", "deletes=-1", "deletes=x", "bogus=1", "partition-size=1048577"} {
		if _, err := parseChurn(bad); err == nil {
			t.Errorf("parseChurn(%q) accepted", bad)
		}
	}
}

// TestHugeChurnRejected: counts past the fault-plan limit (1<<20) are
// usage errors at parse time, for serve and trace alike. Unbounded, the
// first plan runs faultplan's background block out of memory and the
// second spins in Compile, deaf to SIGTERM (shutdown is checked between
// epochs).
func TestHugeChurnRejected(t *testing.T) {
	graph := []string{"--family", "gnm", "--n", "64", "--m", "192"}
	for _, churn := range []string{
		"deletes=3000000000",
		"partitions=900000000000",
		"tree-deletes=1048577",
		"burst-radius=1048577,bursts=1",
	} {
		for _, cmd := range [][]string{
			append([]string{"serve", "--events", "10", "--churn", churn}, graph...),
			append([]string{"trace", "--churn", churn}, graph...),
		} {
			code, _, stderr := exec(t, cmd...)
			if code != 2 || !strings.Contains(stderr, "exceeds the limit") {
				t.Errorf("kkt %s: exit %d, stderr %q; want exit 2 and the limit named", strings.Join(cmd, " "), code, stderr)
			}
		}
	}
}

// promSample is one Prometheus text-format sample line: name, optional
// label set, value, optional timestamp.
var promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)` +
	`(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*")*\})?` +
	` (\S+)(?: -?[0-9]+)?$`)

// parsePromText checks text against the Prometheus text exposition format
// (0.0.4) for the counter and gauge families /metrics emits, and returns
// each sample's name and labels as written. Every line must be a comment
// or parse as a sample, and each family needs exactly one HELP and one
// TYPE, both ahead of its first sample.
func parsePromText(text string) ([]string, error) {
	help := map[string]bool{}
	typ := map[string]string{}
	sampled := map[string]bool{}
	var samples []string
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		fail := func(why string) error { return fmt.Errorf("line %d %q: %s", i+1, line, why) }
		if comment, ok := strings.CutPrefix(line, "#"); ok {
			kw, rest, _ := strings.Cut(strings.TrimPrefix(comment, " "), " ")
			name, arg, _ := strings.Cut(rest, " ")
			switch {
			case kw != "HELP" && kw != "TYPE":
				continue // a plain comment
			case sampled[name]:
				return nil, fail(kw + " after the family's samples")
			case kw == "HELP" && help[name], kw == "TYPE" && typ[name] != "":
				return nil, fail("second " + kw)
			case kw == "TYPE" && arg != "counter" && arg != "gauge":
				return nil, fail("unexpected type")
			case kw == "HELP":
				help[name] = true
			default:
				typ[name] = arg
			}
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			return nil, fail("not a sample line")
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			return nil, fail("bad value")
		}
		if !help[m[1]] || typ[m[1]] == "" {
			return nil, fail("sample before its family's HELP and TYPE")
		}
		sampled[m[1]] = true
		samples = append(samples, m[1]+m[2])
	}
	return samples, nil
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	var body string
	var lastErr error
	for i := 0; i < 50; i++ {
		b, err := tryGet(url)
		if err == nil {
			return b
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("GET %s: %v", url, lastErr)
	return body
}

func tryGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return "", fmt.Errorf("status %s", resp.Status)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(blob), nil
}
