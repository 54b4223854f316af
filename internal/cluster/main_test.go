package cluster_test

import (
	"testing"

	"surfcomm/internal/leakcheck"
)

// TestMain fails the package's tests when they leave a goroutine
// running: a server not closed, a prober not stopped, a stream not
// drained.
func TestMain(m *testing.M) { leakcheck.Main(m) }
