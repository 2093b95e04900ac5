//go:build !linux

package obs

// ReadUsage reports no usage where getrusage's units are not Linux's.
func ReadUsage() (cpuSeconds, maxRSSMiB float64) { return 0, 0 }
