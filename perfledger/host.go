package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostFacts are printed with every result, so a number is never read
// without the machine that produced it.
func hostFacts(cfg config) map[string]any {
	facts := map[string]any{
		"cpu_model":   cpuModel(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"replay_mode": replayMode.String(),
	}
	if cfg.workload == "proraced-fleet" {
		facts["wal_filesystem"] = filesystemOf(cfg.outDir)
		facts["fsync_policy"] = "always"
		facts["window"] = window
		facts["rate_a_per_s"] = cfg.rateA
		facts["rate_b_per_s"] = cfg.rateB
	}
	return facts
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// filesystemOf names the filesystem holding dir, from statfs's magic.
func filesystemOf(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	magic := uint64(st.Type)
	names := map[uint64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
		0x01021997: "9p",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
	}
	if n, ok := names[magic]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", magic)
}

// usage reads the process's own resource usage.
func usage() syscall.Rusage {
	var ru syscall.Rusage
	// RUSAGE_SELF on a live process cannot fail; a zero value would only
	// zero the CPU and RSS figures, which no gate depends on.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	ru := usage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssWindow measures the process's peak resident set size over the
// measured window only. The window starts after a collection that returns
// set-up's garbage to the OS, then resets the kernel's high-water mark
// (writing 5 to /proc/self/clear_refs), so VmHWM at the end is the exact
// peak of the window, with no sampling. Where the reset is refused the
// peak includes set-up, and the diagnostic line says so.
type rssWindow struct {
	start int64 // bytes resident when the window opened
	reset bool  // whether the high-water mark was reset
}

func startRSS() *rssWindow {
	runtime.GC()
	debug.FreeOSMemory()
	err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	return &rssWindow{start: procStatusKB("VmRSS") << 10, reset: err == nil}
}

// peakMB is the high-water resident set since the window opened, in MiB.
func (w *rssWindow) peakMB() float64 { return float64(procStatusKB("VmHWM")) / (1 << 10) }

// startMB is the resident set when the window opened, in MiB: the
// runtime plus the ledger's own inputs, which the peak includes.
func (w *rssWindow) startMB() float64 { return float64(w.start) / (1 << 20) }

// procStatusKB reads one "<field>: <n> kB" line of /proc/self/status (0
// if unavailable).
func procStatusKB(field string) int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == field {
			n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return n
		}
	}
	return 0
}

// stealTicks reads the host's cumulative CPU steal time (the 8th field
// of /proc/stat's cpu line, in clock ticks; 0 if unavailable). Steal is
// time this machine's virtual CPUs were runnable but not run; the delta
// over a window is printed with the result, because it inflates
// wall-clock latencies without showing in CPU time.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}
