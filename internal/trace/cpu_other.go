//go:build !unix

package trace

// ProcessCPUSeconds has no portable implementation off unix; span CPU
// fields read zero there while wall times stay accurate.
func ProcessCPUSeconds() float64 { return 0 }
