//go:build !race

// Package race exposes whether the race detector is active, so tests
// whose assertions are not meaningful under instrumentation (e.g.
// allocation counts: the instrumentation itself allocates) can skip
// themselves.
package race

// Enabled reports whether the binary was built with -race.
const Enabled = false
