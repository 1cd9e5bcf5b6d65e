//go:build !linux

package main

import "os"

// peakRSSMB and cpuSeconds read getrusage, whose units only the Linux
// build interprets; elsewhere the two metrics read 0.
func peakRSSMB(*os.ProcessState) float64 { return 0 }

func cpuSeconds() float64 { return 0 }
