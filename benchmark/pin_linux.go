package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask of up to 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	var mask cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		return nil
	}
	var cpus []int
	for cpu := range len(mask) * 64 {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	return cpus
}

// pinThreads restricts every thread this process has — and so every
// thread it will create — to cpus.
func pinThreads(cpus []int) error {
	var mask cpuMask
	for _, cpu := range cpus {
		mask[cpu/64] |= 1 << (cpu % 64)
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// ESRCH: the thread ended between the listing and the call.
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0]))); errno != 0 && errno != syscall.ESRCH {
			return errno
		}
	}
	return nil
}
