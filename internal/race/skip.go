package race

// TB is the subset of testing.TB these helpers need; declared locally so
// the package does not import testing into non-test builds.
type TB interface {
	Helper()
	Skip(args ...any)
}

// SkipAllocTest skips allocation-count assertions under the race
// detector: the instrumentation itself allocates, so AllocsPerRun
// budgets are only meaningful in a normal build (which CI also runs).
func SkipAllocTest(t TB) {
	t.Helper()
	if Enabled {
		t.Skip("allocation counts are not stable under -race")
	}
}
