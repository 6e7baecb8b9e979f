//go:build !linux

package main

import "os/exec"

// dieWithParent is Linux-only; elsewhere a server outlives a benchmark
// killed mid-run.
func dieWithParent(*exec.Cmd) {}
