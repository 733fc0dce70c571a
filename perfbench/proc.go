package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
// It is 100 on every Linux architecture Go supports.
const clockTicks = 100

// parseProcStat returns the user+sys CPU time recorded in the contents
// of /proc/<pid>/stat. The command name (field 2) is parenthesized and
// may itself hold spaces or parentheses, so fields are counted from the
// last ')'.
func parseProcStat(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := bytes.Fields(b[i+1:])
	// After the command come state (field 3) … utime (14), stime (15).
	const utime = 14 - 3
	if len(f) <= utime+1 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, need %d", len(f), utime+2)
	}
	u, err := strconv.ParseUint(string(f[utime]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	s, err := strconv.ParseUint(string(f[utime+1]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return time.Duration(u+s) * time.Second / clockTicks, nil
}

// parseStatusKB returns a size field of /proc/<pid>/status, in kB:
// VmHWM (peak resident set) or VmRSS (resident set).
func parseStatusKB(b []byte, field string) (int64, error) {
	for _, line := range bytes.Split(b, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte(field+":"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", field, line)
		}
		return strconv.ParseInt(string(f[0]), 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", field)
}

// parseSteal returns the machine's cumulative steal time and total
// CPU time, in clock ticks, from the contents of /proc/stat: the time
// the hypervisor ran something else while this machine's CPUs wanted
// to run.
func parseSteal(b []byte) (steal, total uint64, err error) {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, 0, fmt.Errorf("proc stat: malformed cpu line %q", line)
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user.
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(string(v), 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// machineSteal reads /proc/stat's steal and total CPU ticks.
func machineSteal() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseSteal(b)
}

// procCPU reads a process's cumulative user+sys CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(b)
}

// procStatusMB reads a size field of a process's /proc/<pid>/status,
// in MB.
func procStatusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(b, field)
	return float64(kb) / 1024, err
}

// addSelfRSS adds this process's resident set, read after an op, to w.
// When that closes a window it runs between, work kept out of every
// window, and then hands the heap back to the OS, so that every window
// starts from a released heap. A collection that marks while an op
// holds its transient peak doubles the heap goal, and the resident set
// stays that much higher until the heap is released; without the
// release one such collection would raise every later window's peak.
func addSelfRSS(w *windowPeaks, between func() error) error {
	mb, err := procStatusMB(os.Getpid(), "VmRSS")
	if err != nil {
		return err
	}
	if !w.add(mb) {
		return nil
	}
	if err := between(); err != nil {
		return err
	}
	debug.FreeOSMemory()
	return nil
}

// selfCPU is this process's user+sys CPU time, at microsecond
// resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fsName names the filesystem holding path, from its statfs magic.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	names := map[int64]string{
		0xEF53:     "ext2/3/4",
		0x01021994: "tmpfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
		0xF2F52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("statfs type %#x", st.Type)
}
