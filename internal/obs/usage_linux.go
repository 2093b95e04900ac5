package obs

import "syscall"

// ReadUsage reads the process's resource usage from getrusage: its user
// plus system CPU time so far and its resident-set high-water mark. A
// RunRecord's CPUSeconds is the difference of the reads before and after
// its experiment, and its MaxRSSMiB the read after.
func ReadUsage() (cpuSeconds, maxRSSMiB float64) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0, 0
	}
	cpu := ru.Utime.Nano() + ru.Stime.Nano()
	return float64(cpu) / 1e9, float64(ru.Maxrss) / 1024 // ru_maxrss is in KiB
}
