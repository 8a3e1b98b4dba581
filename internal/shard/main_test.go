package shard

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// TestMain fails the package when goroutines outlive its tests. Only
// Close stops a ShardedPlan's workers, so a test that forgets to close a
// plan shows up here. Closed workers exit asynchronously, hence the poll.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before && code == 0 {
		fmt.Fprintf(os.Stderr, "shard: %d goroutines outlive the tests (%d before them):\n", n, before)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		code = 1
	}
	os.Exit(code)
}
