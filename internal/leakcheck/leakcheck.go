// Package leakcheck fails a package's tests when they leave goroutines
// running. A package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// Main records every goroutine before the tests run. After they pass it
// polls until each goroutine started since has exited, and fails the
// run with the stacks of those still alive when the grace period ends.
// Goroutines are told apart by their ids in runtime.Stack output, so a
// goroutine that outlives the tests is caught however it was started.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// signalLoop is the frame of the goroutine signal.Notify starts once
// and keeps for the life of the process (the fuzzing coordinator
// installs one), so it is never a test's leak.
const signalLoop = "os/signal.loop("

// grace is how long Main waits for goroutines that are still winding
// down — servers closing connections, probers seeing their stop signal.
const grace = 5 * time.Second

// Main runs the tests and exits with their status, turning a pass into
// a failure when goroutines started during the run are still alive
// after the grace period.
func Main(m *testing.M) {
	before := snapshot()
	code := m.Run()
	if code == 0 {
		if leaked := leakedSince(before, grace); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) outlived the tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// snapshot returns the stack of every live goroutine keyed by its id.
func snapshot() map[string]string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, stack := range strings.Split(string(buf), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(stack, "goroutine "), " ")
		out[id] = stack
	}
	return out
}

// leakedSince polls until no goroutine absent from before is alive or
// the grace period ends, and returns the sorted stacks of those left.
func leakedSince(before map[string]string, grace time.Duration) []string {
	deadline := time.Now().Add(grace)
	for {
		var leaked []string
		for id, stack := range snapshot() {
			if _, ok := before[id]; !ok && !strings.Contains(stack, signalLoop) {
				leaked = append(leaked, stack)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			sort.Strings(leaked)
			return leaked
		}
		time.Sleep(20 * time.Millisecond)
	}
}
