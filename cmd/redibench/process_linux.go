package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent makes a benchmark killed mid-run take the process with it.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
