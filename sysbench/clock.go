package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is one reading of the clocks a measured call is charged with.
//
// On a shared virtual machine the hypervisor runs other guests on this
// guest's CPUs for stretches of seconds to minutes (steal time, up to 40% of
// each CPU on the machine the bounds were set on), which moves wall-clock
// rates by far more than any bound a regression gate could use. The
// benchmark therefore charges each call with its wall time less the part
// lost to steal, and separately with the process's CPU time, which the
// kernel already accounts net of steal.
type usage struct {
	wall  time.Time
	cpu   time.Duration // user + system CPU time of the process
	steal time.Duration // steal time summed over CPUs
}

func readUsage() usage {
	u := usage{wall: time.Now()}
	var r syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &r) == nil {
		u.cpu = time.Duration(r.Utime.Nano() + r.Stime.Nano())
	}
	u.steal = readSteal()
	return u
}

// readSteal returns the machine's cumulative steal time from /proc/stat (0
// where it cannot be read, so that no steal is subtracted). /proc/stat
// counts in USER_HZ ticks, which Linux fixes at 100 per second.
func readSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) > 8 && f[0] == "cpu" {
			if ticks, err := strconv.ParseInt(f[8], 10, 64); err == nil {
				return time.Duration(ticks) * (time.Second / 100)
			}
		}
	}
	return 0
}

// elapsed returns the work time since u and the process CPU time since u.
//
// Work time is the wall time scaled by the share of the time the process's
// CPUs were runnable that they ran: cpu / (cpu + steal). A CPU accrues steal
// only while it has work, so this charges steal by how busy the process kept
// the CPUs. With every CPU busy on independent work it takes the average
// CPU's steal off the wall time; with one thread busy it takes off all of
// that thread's steal; and where one worker idles at a join while the
// other's CPU is stolen — the serving path's par splits of small batches
// join about 14000 times a second — the whole wait is taken off.
func (u usage) elapsed() (work, cpu time.Duration) {
	now := readUsage()
	work = now.wall.Sub(u.wall)
	cpu = now.cpu - u.cpu
	if busy := cpu + now.steal - u.steal; busy > 0 && cpu > 0 {
		work = time.Duration(float64(work) * float64(cpu) / float64(busy))
	}
	return work, cpu
}
