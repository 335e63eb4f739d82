//go:build !linux

package main

// Without sched_setaffinity nothing is pinned: the benchmark runs, with
// more noise between runs.
func allowedCPUs() []int          { return nil }
func pinThreads(cpus []int) error { return nil }
