package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running `redi serve` process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	exited chan struct{}
	// setup runs from the process spawn to the first 200 from /stats:
	// CSV load plus index build.
	setup time.Duration
}

// startServer spawns redi serve over csv and waits until it answers.
func startServer(redi, csv string, flags ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"serve", "-schema", schemaSpec, "-addr", addr, "-threshold", "50"}, flags...)
	s := &server{addr: addr, exited: make(chan struct{})}
	s.cmd = exec.Command(redi, append(args, csv)...)
	s.cmd.Stderr = &s.stderr
	dieWithParent(s.cmd)
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.cmd.Wait() // the exit status of a killed server carries nothing
		close(s.exited)
	}()
	poll := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	for {
		resp, err := poll.Get("http://" + addr + "/stats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("redi serve exited during start-up: %s", strings.TrimSpace(s.stderr.String()))
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > 2*time.Minute {
			s.stop()
			return nil, errors.New("redi serve did not answer /stats within 2 minutes")
		}
	}
}

// freeAddr picks a loopback port that is free now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// peakRSSMB reads the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop kills the server and waits for it to exit.
func (s *server) stop() {
	s.cmd.Process.Kill() // an already-exited process is the only failure
	<-s.exited
}

// cliRun is one finished redi process.
type cliRun struct {
	wall   time.Duration
	rssMB  float64
	exit   int
	stdout string
}

// measureArg is the hidden first argument under which redibench runs one
// command and reports its wall time and peak RSS. Go spawns children
// with vfork, and Linux carries the spawning process's RSS high-water
// mark into the child's Maxrss across exec; a fresh, small redibench
// process in between keeps the generator's own heap out of redi's.
const measureArg = "measure-child"

// measureChild runs args, passing its output and exit status through, and
// writes "<wall ns> <Maxrss KiB>" to file descriptor 3.
func measureChild(args []string) int {
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if cmd.ProcessState == nil {
		fmt.Fprintln(os.Stderr, "redibench:", err)
		return 2
	}
	var maxrss int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		maxrss = ru.Maxrss
	}
	report := os.NewFile(3, "report")
	fmt.Fprintf(report, "%d %d\n", wall.Nanoseconds(), maxrss)
	report.Close()
	return cmd.ProcessState.ExitCode()
}

// runRedi runs one redi command to completion through measureChild. Exit
// status 1 without an error message is an audit that found violations, a
// valid result.
func runRedi(redi string, args ...string) (cliRun, error) {
	self, err := os.Executable()
	if err != nil {
		return cliRun{}, err
	}
	r, w, err := os.Pipe()
	if err != nil {
		return cliRun{}, err
	}
	defer r.Close()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(self, append([]string{measureArg, redi}, args...)...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.ExtraFiles = []*os.File{w}
	err = cmd.Run()
	w.Close()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1 && stderr.Len() == 0) {
		return cliRun{}, fmt.Errorf("redi %s: %v: %s", args[0], err, strings.TrimSpace(stderr.String()))
	}
	var wallNS, maxrss int64
	if _, err := fmt.Fscan(r, &wallNS, &maxrss); err != nil {
		return cliRun{}, fmt.Errorf("redi %s: reading its measurement: %w", args[0], err)
	}
	return cliRun{
		wall:   time.Duration(wallNS),
		rssMB:  float64(maxrss) / 1024, // Linux reports KiB
		exit:   cmd.ProcessState.ExitCode(),
		stdout: stdout.String(),
	}, nil
}
