// Package profiling wires the conventional -cpuprofile/-memprofile
// behavior into the CLIs: it was used to find and validate the
// zero-allocation sampler work and stays available for the next hot-path
// investigation (go tool pprof <binary> <profile>).
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
)

// recording is set while a CPU profile started by Start records. Like
// the runtime's CPU profiler it mirrors, it is one fact per process.
var recording atomic.Bool

// Recording reports whether a CPU profile started by Start is recording.
// Code that pays to attribute its samples (pprof goroutine labels) does
// so only then.
func Recording() bool { return recording.Load() }

// Start begins CPU profiling to cpuPath (if non-empty) and arranges for
// a heap profile at memPath (if non-empty). The returned stop function
// flushes both; callers must invoke it on every exit path that should
// produce profiles (a defer in run() is the usual shape). Recording
// reports true from Start's return until stop.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
		recording.Store(true)
	}
	return func() error {
		if cpuFile != nil {
			recording.Store(false)
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("create mem profile: %w", err)
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("write mem profile: %w", err)
			}
		}
		return nil
	}, nil
}
